module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (V : ORDERED) = struct
  type vertex = V.t

  module VMap = Map.Make (V)
  module VSet = Set.Make (V)

  (* Adjacency is kept in insertion order so that analyses and printers
     are deterministic across runs: each vertex's neighbours are a list,
     newest first, with a set beside it so that adding an edge costs a
     membership test and a cons. Only replacing an existing edge, which
     moves it to the end, walks the list. *)
  type 'e neighbours = { rev : (vertex * 'e) list; set : VSet.t }

  type ('a, 'e) t = {
    labels : 'a VMap.t;
    succ : 'e neighbours VMap.t;
    pred : 'e neighbours VMap.t;
    insertion : vertex list; (* reverse insertion order of vertices *)
  }

  let none = { rev = []; set = VSet.empty }
  let empty = { labels = VMap.empty; succ = VMap.empty; pred = VMap.empty; insertion = [] }
  let mem_vertex g v = VMap.mem v g.labels

  let add_vertex g v label =
    if mem_vertex g v then { g with labels = VMap.add v label g.labels }
    else
      {
        labels = VMap.add v label g.labels;
        succ = VMap.add v none g.succ;
        pred = VMap.add v none g.pred;
        insertion = v :: g.insertion;
      }

  let adjacency map v = match VMap.find_opt v map with Some a -> a | None -> none
  let drop key l = List.filter (fun (k, _) -> V.compare k key <> 0) l

  (* [key] moves to the end (the head of [rev]) with its new label. *)
  let replace a key value =
    let rev = if VSet.mem key a.set then drop key a.rev else a.rev in
    { rev = (key, value) :: rev; set = VSet.add key a.set }

  let add_edge g ~src ~dst e =
    if not (mem_vertex g src) then invalid_arg "Dgraph.add_edge: unknown source vertex";
    if not (mem_vertex g dst) then invalid_arg "Dgraph.add_edge: unknown destination vertex";
    {
      g with
      succ = VMap.add src (replace (adjacency g.succ src) dst e) g.succ;
      pred = VMap.add dst (replace (adjacency g.pred dst) src e) g.pred;
    }

  let succs g v = List.rev (adjacency g.succ v).rev
  let preds g v = List.rev (adjacency g.pred v).rev
  let find_vertex g v = VMap.find_opt v g.labels

  let find_vertex_exn g v =
    match find_vertex g v with
    | Some label -> label
    | None -> invalid_arg "Dgraph.find_vertex_exn: unknown vertex"

  let in_degree g v = List.length (adjacency g.pred v).rev
  let vertex_order g = List.rev g.insertion
  let vertices g = List.map (fun v -> (v, VMap.find v g.labels)) (vertex_order g)

  (* Kahn's algorithm, scanning ready vertices in insertion order for
     deterministic output. *)
  let topological_sort g =
    let in_deg = Hashtbl.create 16 in
    List.iter (fun (v, _) -> Hashtbl.replace in_deg v (in_degree g v)) (vertices g);
    let order = vertex_order g in
    let ready = Queue.create () in
    List.iter (fun v -> if Hashtbl.find in_deg v = 0 then Queue.add v ready) order;
    let sorted = ref [] in
    while not (Queue.is_empty ready) do
      let v = Queue.pop ready in
      sorted := v :: !sorted;
      List.iter
        (fun (s, _) ->
          let d = Hashtbl.find in_deg s - 1 in
          Hashtbl.replace in_deg s d;
          if d = 0 then Queue.add s ready)
        (succs g v)
    done;
    (* A vertex left with positive in-degree lies on a cycle or after one. *)
    match List.filter (fun v -> Hashtbl.find in_deg v > 0) order with
    | [] -> Ok (List.rev !sorted)
    | remaining -> Error remaining

  let is_dag g = match topological_sort g with Ok _ -> true | Error _ -> false

  let reachable_from g seeds =
    let visited = ref VSet.empty in
    let rec visit v =
      if not (VSet.mem v !visited) then begin
        visited := VSet.add v !visited;
        List.iter (fun (s, _) -> visit s) (succs g v)
      end
    in
    List.iter visit seeds;
    List.filter (fun v -> VSet.mem v !visited) (vertex_order g)

  let transpose g = { g with succ = g.pred; pred = g.succ }
end
