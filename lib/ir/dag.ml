(* Hash-consed expression DAG: the canonical sharing-aware form of
   Expr trees. Structurally identical subexpressions are represented by
   one node with a unique id, so equality is an integer comparison and
   every analysis can choose between *tree* semantics (the fully inlined
   expression, as the frontend wrote it) and *work* semantics (each
   distinct value computed once, as the spatial pipeline executes it). *)

type t = { id : int; tree_size : int; node : node }

and node =
  | Const of float
  | Access of { field : string; offsets : int list }
  | Var of string
  | Unary of Expr.unop * t
  | Binary of Expr.binop * t * t
  | Select of { cond : t; if_true : t; if_false : t }
  | Call of Expr.func * t list

type view = node =
  | Const of float
  | Access of { field : string; offsets : int list }
  | Var of string
  | Unary of Expr.unop * t
  | Binary of Expr.binop * t * t
  | Select of { cond : t; if_true : t; if_false : t }
  | Call of Expr.func * t list

(* Keys identify a node by its shape and its children's ids. Constants
   are keyed on their bit pattern so NaN payloads and -0.0 vs 0.0 stay
   distinct values (Expr.equal would conflate NaNs; the DAG must not
   merge values the hardware distinguishes). *)
type key =
  | KConst of int64
  | KAccess of string * int list
  | KVar of string
  | KUnary of Expr.unop * int
  | KBinary of Expr.binop * int * int
  | KSelect of int * int * int
  | KCall of Expr.func * int list

(* The memo table is domain-local: the executor's workers (serve
   requests, fault campaigns, autotuning) build DAGs from several OCaml 5
   domains at once, and a shared table would race. Nodes therefore must
   not cross domains — every current consumer builds, analyses and
   discards its DAG within one domain; the persistent program
   representation stays Expr.body. *)
type state = { table : (key, t) Hashtbl.t; mutable next_id : int }

let state_key =
  Domain.DLS.new_key (fun () -> { table = Hashtbl.create 1024; next_id = 0 })

let view t = t.node
let id t = t.id
let equal a b = a.id = b.id
let compare a b = Stdlib.compare a.id b.id
let hash t = t.id
let tree_size t = t.tree_size

let key_of node =
  match node with
  | Const c -> KConst (Int64.bits_of_float c)
  | Access { field; offsets } -> KAccess (field, offsets)
  | Var v -> KVar v
  | Unary (op, x) -> KUnary (op, x.id)
  | Binary (op, x, y) -> KBinary (op, x.id, y.id)
  | Select { cond; if_true; if_false } -> KSelect (cond.id, if_true.id, if_false.id)
  | Call (f, args) -> KCall (f, List.map (fun a -> a.id) args)

let node_tree_size node =
  match node with
  | Const _ | Access _ | Var _ -> 1
  | Unary (_, x) -> Expr.sat_add 1 x.tree_size
  | Binary (_, x, y) -> Expr.sat_add 1 (Expr.sat_add x.tree_size y.tree_size)
  | Select { cond; if_true; if_false } ->
      Expr.sat_add 1
        (Expr.sat_add cond.tree_size (Expr.sat_add if_true.tree_size if_false.tree_size))
  | Call (_, args) -> List.fold_left (fun acc a -> Expr.sat_add acc a.tree_size) 1 args

let make node =
  let st = Domain.DLS.get state_key in
  let key = key_of node in
  match Hashtbl.find_opt st.table key with
  | Some t -> t
  | None ->
      let t = { id = st.next_id; tree_size = node_tree_size node; node } in
      st.next_id <- st.next_id + 1;
      Hashtbl.add st.table key t;
      t

let const c = make (Const c)
let access ~field ~offsets = make (Access { field; offsets })
let var v = make (Var v)
let unary op x = make (Unary (op, x))
let binary op x y = make (Binary (op, x, y))
let select ~cond ~if_true ~if_false = make (Select { cond; if_true; if_false })
let call f args = make (Call (f, args))

let rec of_expr ?(env = fun _ -> None) (e : Expr.t) =
  match e with
  | Expr.Const c -> const c
  | Expr.Access { field; offsets } -> access ~field ~offsets
  | Expr.Var v -> ( match env v with Some t -> t | None -> var v)
  | Expr.Unary (op, x) -> unary op (of_expr ~env x)
  | Expr.Binary (op, x, y) -> binary op (of_expr ~env x) (of_expr ~env y)
  | Expr.Select { cond; if_true; if_false } ->
      select ~cond:(of_expr ~env cond) ~if_true:(of_expr ~env if_true)
        ~if_false:(of_expr ~env if_false)
  | Expr.Call (f, args) -> call f (List.map (of_expr ~env) args)

(* Let bindings are resolved into the graph: a variable reference becomes
   a (shared) edge to the bound node, so textual sharing written by the
   programmer and structural sharing discovered by hash-consing end up in
   the same representation. Unbound variables stay as [Var] leaves. *)
let of_body_named (b : Expr.body) =
  let bound : (string, t) Hashtbl.t = Hashtbl.create 8 in
  let env v = Hashtbl.find_opt bound v in
  let names =
    List.map
      (fun (name, e) ->
        let t = of_expr ~env e in
        Hashtbl.replace bound name t;
        (name, t))
      b.Expr.lets
  in
  (names, of_expr ~env b.Expr.result)

let of_body b = snd (of_body_named b)

(* Children are always created before their parents, so node ids are a
   topological order of every DAG (hash-cons hits return the original,
   older node). *)
let reachable roots =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go t =
    if not (Hashtbl.mem seen t.id) then begin
      Hashtbl.add seen t.id ();
      (match t.node with
      | Const _ | Access _ | Var _ -> ()
      | Unary (_, x) -> go x
      | Binary (_, x, y) ->
          go x;
          go y
      | Select { cond; if_true; if_false } ->
          go cond;
          go if_true;
          go if_false
      | Call (_, args) -> List.iter go args);
      acc := t :: !acc
    end
  in
  List.iter go roots;
  !acc

let post_order roots = List.rev (reachable roots)
let topo root = List.sort compare (reachable [ root ])
let work_size root = List.length (reachable [ root ])

let to_expr root =
  let memo : (int, Expr.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some e -> e
    | None ->
        let e =
          match t.node with
          | Const c -> Expr.Const c
          | Access { field; offsets } -> Expr.Access { field; offsets }
          | Var v -> Expr.Var v
          | Unary (op, x) -> Expr.Unary (op, go x)
          | Binary (op, x, y) -> Expr.Binary (op, go x, go y)
          | Select { cond; if_true; if_false } ->
              Expr.Select
                { cond = go cond; if_true = go if_true; if_false = go if_false }
          | Call (f, args) -> Expr.Call (f, List.map go args)
        in
        Hashtbl.replace memo t.id e;
        e
  in
  go root

(* First-encounter order in a left-to-right DFS equals first-encounter
   order in the fully inlined tree, so this agrees with
   [Expr.accesses (to_expr root)] — the internal-buffer and
   boundary analyses depend on that order. Hash-consing makes each
   distinct access a single node, so the visited set also deduplicates. *)
let accesses root =
  List.filter_map
    (fun t -> match t.node with Access { field; offsets } -> Some (field, offsets) | _ -> None)
    (post_order [ root ])

let free_vars root =
  List.filter_map
    (fun t -> match t.node with Var v -> Some v | _ -> None)
    (post_order [ root ])

let map_accesses f root =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some t' -> t'
    | None ->
        let t' =
          match t.node with
          | Access { field; offsets } -> f ~field ~offsets
          | Const _ | Var _ -> t
          | Unary (op, x) -> unary op (go x)
          | Binary (op, x, y) -> binary op (go x) (go y)
          | Select { cond; if_true; if_false } ->
              select ~cond:(go cond) ~if_true:(go if_true) ~if_false:(go if_false)
          | Call (g, args) -> call g (List.map go args)
        in
        Hashtbl.replace memo t.id t';
        t'
  in
  go root

let reads_data root =
  List.exists
    (fun t -> match t.node with Access _ | Var _ -> true | _ -> false)
    (reachable [ root ])

(* Profile contribution of one node (mirrors Expr.op_profile's
   classification, including the data- vs constant-branch split). *)
let node_profile t =
  let p = Expr.empty_profile in
  match t.node with
  | Const _ | Access _ | Var _ -> p
  | Unary (Expr.Neg, _) -> { p with Expr.adds = 1 }
  | Unary (Expr.Not, _) -> p
  | Binary ((Expr.Add | Expr.Sub), _, _) -> { p with Expr.adds = 1 }
  | Binary (Expr.Mul, _, _) -> { p with Expr.muls = 1 }
  | Binary (Expr.Div, _, _) -> { p with Expr.divs = 1 }
  | Binary ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge | Expr.Eq | Expr.Ne), _, _) ->
      { p with Expr.compares = 1 }
  | Binary ((Expr.And | Expr.Or), _, _) -> p
  | Select { cond; _ } ->
      if reads_data cond then { p with Expr.data_branches = 1 }
      else { p with Expr.const_branches = 1 }
  | Call (Expr.Sqrt, _) -> { p with Expr.sqrts = 1 }
  | Call (Expr.Min, _) -> { p with Expr.mins = 1 }
  | Call (Expr.Max, _) -> { p with Expr.maxs = 1 }
  | Call ((Expr.Abs | Expr.Exp | Expr.Log | Expr.Pow | Expr.Sin | Expr.Cos | Expr.Floor
          | Expr.Ceil), _) ->
      { p with Expr.other_calls = 1 }

(* Work profile: every distinct node counted exactly once — the op count
   of the pipeline that computes each shared value a single time and fans
   it out. *)
let work_profile root =
  List.fold_left
    (fun acc t -> Expr.add_profile acc (node_profile t))
    Expr.empty_profile (reachable [ root ])

(* Tree profile: the fully inlined expression's counts — what a naive
   per-occurrence evaluation would execute. Saturating, like tree_size. *)
let tree_profile root =
  let memo : (int, Expr.op_profile) Hashtbl.t = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some p -> p
    | None ->
        let own = node_profile t in
        let p =
          match t.node with
          | Const _ | Access _ | Var _ -> own
          | Unary (_, x) -> Expr.sat_add_profile own (go x)
          | Binary (_, x, y) -> Expr.sat_add_profile own (Expr.sat_add_profile (go x) (go y))
          | Select { cond; if_true; if_false } ->
              Expr.sat_add_profile own
                (Expr.sat_add_profile (go cond) (Expr.sat_add_profile (go if_true) (go if_false)))
          | Call (_, args) ->
              List.fold_left (fun acc a -> Expr.sat_add_profile acc (go a)) own args
        in
        Hashtbl.replace memo t.id p;
        p
  in
  go root

let is_leaf t = match t.node with Const _ | Access _ | Var _ -> true | _ -> false

(* Parent-edge reference counts over the reachable subgraph. Duplicate
   edges count separately — Binary (op, x, x) references x twice, and x
   is genuinely shared work — while a node occurring many times in the
   *tree* through a single shared parent has refcount 1 (fixing the
   nested-occurrence double counting of the string-keyed CSE). *)
let refcounts nodes root =
  let refs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bump t = Hashtbl.replace refs t.id (1 + Option.value ~default:0 (Hashtbl.find_opt refs t.id)) in
  List.iter
    (fun t ->
      match t.node with
      | Const _ | Access _ | Var _ -> ()
      | Unary (_, x) -> bump x
      | Binary (_, x, y) ->
          bump x;
          bump y
      | Select { cond; if_true; if_false } ->
          bump cond;
          bump if_true;
          bump if_false
      | Call (_, args) -> List.iter bump args)
    nodes;
  bump root;
  refs

let shared_nodes root =
  let nodes = reachable [ root ] in
  let refs = refcounts nodes root in
  List.length
    (List.filter
       (fun t -> (not (is_leaf t)) && Option.value ~default:0 (Hashtbl.find_opt refs t.id) >= 2)
       nodes)

(* CSE as let-extraction: bind every non-leaf node referenced at least
   twice (and of at least [min_size] tree nodes) exactly once, in DFS
   post-order from the root — a topological order that, unlike node ids,
   does not depend on what the domain interned earlier. [keep] pins
   nodes to a given name (used by codegen to preserve the programmer's
   let names); kept nodes are extracted regardless of sharing or size. *)
let extract ?(min_size = 3) ?(prefix = "__cse") ?(keep = []) root =
  let nodes = post_order [ root ] in
  let refs = refcounts nodes root in
  let kept_name : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let taken : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, t) ->
      if not (Hashtbl.mem kept_name t.id) then begin
        Hashtbl.replace kept_name t.id name;
        Hashtbl.replace taken name ()
      end)
    keep;
  let extracted =
    List.filter
      (fun t ->
        Hashtbl.mem kept_name t.id
        || ((not (is_leaf t))
           && Option.value ~default:0 (Hashtbl.find_opt refs t.id) >= 2
           && t.tree_size >= min_size
           && not (equal t root)))
      nodes
  in
  let name_of : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let counter = ref 0 in
  List.iter
    (fun t ->
      match Hashtbl.find_opt kept_name t.id with
      | Some name -> Hashtbl.replace name_of t.id name
      | None ->
          let rec fresh () =
            let name = Printf.sprintf "%s%d" prefix !counter in
            incr counter;
            if Hashtbl.mem taken name then fresh () else name
          in
          Hashtbl.replace name_of t.id (fresh ()))
    extracted;
  (* Render a node's expression, replacing extracted strict descendants
     by their variable. *)
  let render top =
    let rec go t =
      match Hashtbl.find_opt name_of t.id with
      | Some v when not (equal t top) -> Expr.Var v
      | _ -> (
          match t.node with
          | Const c -> Expr.Const c
          | Access { field; offsets } -> Expr.Access { field; offsets }
          | Var v -> Expr.Var v
          | Unary (op, x) -> Expr.Unary (op, go x)
          | Binary (op, x, y) -> Expr.Binary (op, go x, go y)
          | Select { cond; if_true; if_false } ->
              Expr.Select { cond = go cond; if_true = go if_true; if_false = go if_false }
          | Call (f, args) -> Expr.Call (f, List.map go args))
    in
    go top
  in
  let lets = List.map (fun t -> (Hashtbl.find name_of t.id, render t)) extracted in
  let result =
    match Hashtbl.find_opt name_of root.id with
    | Some v -> Expr.Var v
    | None -> render root
  in
  { Expr.lets; result }

let to_body ?min_size ?prefix root = extract ?min_size ?prefix root
