module G = Sf_support.Dgraph.Make (String)

let build vertices edges =
  let g = List.fold_left (fun g v -> G.add_vertex g v ()) G.empty vertices in
  List.fold_left (fun g (src, dst) -> G.add_edge g ~src ~dst ()) g edges

(* Every edge as (src, dst, label), source by source. *)
let edges g =
  List.concat_map (fun (v, _) -> List.map (fun (d, e) -> (v, d, e)) (G.succs g v)) (G.vertices g)

let diamond = build [ "a"; "b"; "c"; "d" ] [ ("a", "b"); ("a", "c"); ("b", "d"); ("c", "d") ]

let test_degrees () =
  Alcotest.(check int) "in d" 2 (G.in_degree diamond "d")

let test_topo () =
  match G.topological_sort diamond with
  | Error _ -> Alcotest.fail "diamond is a DAG"
  | Ok order ->
      Alcotest.(check int) "all vertices" 4 (List.length order);
      let pos v =
        let rec go i = function
          | [] -> Alcotest.fail (v ^ " missing")
          | x :: rest -> if String.equal x v then i else go (i + 1) rest
        in
        go 0 order
      in
      List.iter
        (fun (src, dst, ()) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s before %s" src dst)
            true
            (pos src < pos dst))
        (edges diamond)

let test_cycle_detection () =
  let cyclic = build [ "x"; "y"; "z" ] [ ("x", "y"); ("y", "z"); ("z", "x") ] in
  Alcotest.(check bool) "cyclic" false (G.is_dag cyclic);
  Alcotest.(check bool) "diamond acyclic" true (G.is_dag diamond);
  match G.topological_sort cyclic with
  | Ok _ -> Alcotest.fail "cycle not detected"
  | Error witnesses -> Alcotest.(check bool) "witnesses nonempty" true (witnesses <> [])

let test_self_loop () =
  let g = build [ "v" ] [ ("v", "v") ] in
  Alcotest.(check bool) "self loop is a cycle" false (G.is_dag g)

let test_reachability () =
  let g = build [ "a"; "b"; "c"; "d"; "e" ] [ ("a", "b"); ("b", "c"); ("d", "e") ] in
  Alcotest.(check (list string)) "from a" [ "a"; "b"; "c" ] (G.reachable_from g [ "a" ]);
  Alcotest.(check (list string)) "backwards from c" [ "a"; "b"; "c" ]
    (G.reachable_from (G.transpose g) [ "c" ])

let test_edge_relabel () =
  let g = List.fold_left (fun g v -> G.add_vertex g v 0) G.empty [ "u"; "v" ] in
  let g = G.add_edge g ~src:"u" ~dst:"v" 1 in
  let g = G.add_edge g ~src:"u" ~dst:"v" 2 in
  Alcotest.(check int) "single edge" 1 (List.length (G.succs g "u"));
  Alcotest.(check (option int)) "label replaced" (Some 2) (List.assoc_opt "v" (G.succs g "u"))

(* Property: on random DAGs (edges only from lower to higher index),
   topological_sort succeeds and respects all edges. *)
let random_dag_gen =
  let open QCheck.Gen in
  int_range 1 12 >>= fun n ->
  let vertex i = Printf.sprintf "v%d" i in
  let all_pairs =
    List.concat_map
      (fun i -> List.map (fun j -> (vertex i, vertex j)) (List.filter (fun j -> j > i) (List.init n Fun.id)))
      (List.init n Fun.id)
  in
  let* edges = List.fold_left
    (fun acc pair ->
      let* acc = acc in
      let* keep = bool in
      return (if keep then pair :: acc else acc))
    (return []) all_pairs
  in
  return (build (List.init n vertex) edges)

let prop_topo_respects_edges =
  QCheck.Test.make ~count:100 ~name:"topological sort respects edges on random DAGs"
    (QCheck.make random_dag_gen) (fun g ->
      match G.topological_sort g with
      | Error _ -> false
      | Ok order ->
          let position = Hashtbl.create 16 in
          List.iteri (fun i v -> Hashtbl.replace position v i) order;
          List.for_all
            (fun (src, dst, ()) -> Hashtbl.find position src < Hashtbl.find position dst)
            (edges g))

(* The adjacency lists as they were kept before neighbour sets: each
   vertex's edges in one list in insertion order, and adding an edge
   filtered the whole list and appended to it (so re-adding moves the
   edge to the end). *)
module Reference = struct
  type t = (string * (string * int) list) list * (string * (string * int) list) list

  let replace_assoc key value l = List.filter (fun (k, _) -> k <> key) l @ [ (key, value) ]
  let adj m v = Option.value (List.assoc_opt v m) ~default:[]
  let set m v l = (v, l) :: List.remove_assoc v m

  let add_edge ((succ, pred) : t) ~src ~dst e : t =
    ( set succ src (replace_assoc dst e (adj succ src)),
      set pred dst (replace_assoc src e (adj pred dst)) )
end

(* Random runs of edge additions (often of an existing edge, with a new
   label) over six vertices: every adjacency list, label and count must
   be the reference's. *)
let prop_adjacency_matches_reference =
  let vertices = List.init 6 (Printf.sprintf "v%d") in
  let op = QCheck.Gen.(triple (oneofl vertices) (oneofl vertices) (int_range 0 9)) in
  let print = QCheck.Print.(list (triple string string int)) in
  QCheck.Test.make ~count:300 ~name:"adjacency equals the filter-and-append definition"
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 0 60) op))
    (fun ops ->
      let g0 = List.fold_left (fun g v -> G.add_vertex g v ()) G.empty vertices in
      let g, (succ, pred) =
        List.fold_left
          (fun (g, r) (src, dst, e) -> (G.add_edge g ~src ~dst e, Reference.add_edge r ~src ~dst e))
          (g0, ([], [])) ops
      in
      List.for_all
        (fun v ->
          G.succs g v = Reference.adj succ v
          && G.preds g v = Reference.adj pred v
          && G.in_degree g v = List.length (Reference.adj pred v))
        vertices)

let suite =
  [
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "topological sort of diamond" `Quick test_topo;
    Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
    Alcotest.test_case "self loop" `Quick test_self_loop;
    Alcotest.test_case "reachability and transpose" `Quick test_reachability;
    Alcotest.test_case "edge relabeling keeps one edge" `Quick test_edge_relabel;
    QCheck_alcotest.to_alcotest prop_topo_respects_edges;
    QCheck_alcotest.to_alcotest prop_adjacency_matches_reference;
  ]
