open Sf_ir
module Delay_buffer = Sf_analysis.Delay_buffer
module Internal_buffer = Sf_analysis.Internal_buffer

type storage = Off_chip | On_chip | Stream of { depth : int }

type container = {
  cname : string;
  dtype : Dtype.t;
  extent : int list;
  storage : storage;
  transient : bool;
  axes_hint : int list option;
}

type node_id = int

type port =
  | Channel of { src : string; dst : string; depth : int }
  | Smi of { src : string; dst : string; src_rank : int; dst_rank : int }
  | Writer of string
  | Prefetch of Field.t

type register = { buffer : Internal_buffer.t; start : int }

type node =
  | Access of string
  | Tasklet of { label : string; body : Expr.body }
  | Stencil_node of { stencil : Stencil.t; device : int }
  | Pipeline of pipeline
  | Unrolled_map of { label : string; width : int; body : graph }

and pipeline = {
  label : string;
  stencil : Stencil.t;
  device : int;
  iteration : int list;
  init_cycles : int;
  drain_cycles : int;
  words : int;
  registers : register list;
  inputs : port list;
  outputs : port list;
  body : graph;
}

and edge = { src : node_id; dst : node_id; data : string; subset : string }
and graph = { nodes : (node_id * node) list; edges : edge list }

type state = { slabel : string; body : graph }

type t = {
  name : string;
  containers : container list;
  states : state list;
  analysis : Delay_buffer.t;
  devices : int;
}

let empty_graph = { nodes = []; edges = [] }

let add_node g node =
  let id = List.length g.nodes in
  ({ g with nodes = g.nodes @ [ (id, node) ] }, id)

let add_edge g ~src ~dst ~data ~subset = { g with edges = g.edges @ [ { src; dst; data; subset } ] }
let find_container t name = List.find_opt (fun c -> String.equal c.cname name) t.containers

let subset_of_offsets offsets =
  "[" ^ Sf_support.Util.string_concat_map ", " string_of_int offsets ^ "]"

(* Container names spell program names with [Ident.of_name], whose
   results neither contain [__] nor start or end with [_], so both
   joins below are injective. *)
let stream_name ~src ~dst = Ident.of_name src ^ "__to__" ^ Ident.of_name dst

let of_analysis ?partition analysis =
  let checked = Delay_buffer.checked analysis in
  let p = Program.Checked.program checked in
  let device_of, devices =
    match partition with
    | Some pt -> (Sf_mapping.Partition.placement_fn pt, pt.Sf_mapping.Partition.num_devices)
    | None -> ((fun _ -> 0), 1)
  in
  let full_shape = p.Program.shape in
  let containers = ref [] in
  let add_container c = containers := !containers @ [ c ] in
  List.iter
    (fun (f : Field.t) ->
      add_container
        {
          cname = f.Field.name;
          dtype = f.Field.dtype;
          extent = Field.extent f ~shape:full_shape;
          storage = Off_chip;
          transient = false;
          axes_hint = Some f.Field.axes;
        })
    p.Program.inputs;
  let graph = ref empty_graph in
  let node id_graph node =
    let g, id = add_node id_graph node in
    graph := g;
    id
  in
  (* Access nodes are shared per container within the state. *)
  let access_ids : (string, node_id) Hashtbl.t = Hashtbl.create 16 in
  let access name =
    match Hashtbl.find_opt access_ids name with
    | Some id -> id
    | None ->
        let id = node !graph (Access name) in
        Hashtbl.replace access_ids name id;
        id
  in
  let stencil_ids : (string, node_id) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Stencil.t) ->
      let id = node !graph (Stencil_node { stencil = s; device = device_of s.Stencil.name }) in
      Hashtbl.replace stencil_ids s.Stencil.name id)
    p.Program.stencils;
  (* Result containers: off-chip when written to memory, streams between
     stencils otherwise; a stencil consumed by several others gets one
     stream per edge, with the analysed depth. *)
  List.iter
    (fun (s : Stencil.t) ->
      let name = s.Stencil.name in
      let sid = Hashtbl.find stencil_ids name in
      if List.exists (String.equal name) p.Program.outputs then begin
        add_container
          {
            cname = name;
            dtype = p.Program.dtype;
            extent = full_shape;
            storage = Off_chip;
            transient = false;
            axes_hint = None;
          };
        graph :=
          add_edge !graph ~src:sid ~dst:(access name) ~data:name ~subset:"[full]"
      end;
      List.iter
        (fun consumer ->
          let sname = stream_name ~src:name ~dst:consumer in
          let depth = Delay_buffer.buffer_for analysis ~src:name ~dst:consumer in
          add_container
            {
              cname = sname;
              dtype = p.Program.dtype;
              extent = [];
              storage = Stream { depth };
              transient = true;
              axes_hint = None;
            };
          let aid = access sname in
          graph := add_edge !graph ~src:sid ~dst:aid ~data:sname ~subset:"[stream]";
          graph :=
            add_edge !graph ~src:aid
              ~dst:(Hashtbl.find stencil_ids consumer)
              ~data:sname ~subset:"[stream]")
        (Program.Checked.consumers checked name))
    p.Program.stencils;
  (* Input reads. *)
  List.iter
    (fun (s : Stencil.t) ->
      let name = s.Stencil.name in
      let sid = Hashtbl.find stencil_ids name in
      let accesses = Program.Checked.accesses checked name in
      List.iter
        (fun field ->
          match Program.Checked.find checked field with
          | Program.Input _ ->
              graph :=
                add_edge !graph ~src:(access field) ~dst:sid ~data:field
                  ~subset:
                    (Sf_support.Util.string_concat_map " " subset_of_offsets
                       (Stencil.offsets_read accesses field))
          | Program.Op _ -> ())
        (Program.Checked.reads checked name))
    p.Program.stencils;
  {
    name = p.Program.name;
    containers = !containers;
    states = [ { slabel = "main"; body = !graph } ];
    analysis;
    devices;
  }

let of_checked ?partition checked = of_analysis ?partition (Delay_buffer.of_checked checked)
let of_program p = of_checked (Program.check_exn p)
let program t = Program.Checked.program (Delay_buffer.checked t.analysis)

(* The Fig. 12 subgraph of a stencil library node, with its shift
   registers. *)
let expand_stencil w (buffers : Internal_buffer.t list) (s : Stencil.t) accesses =
  let g = ref empty_graph in
  let node n =
    let g', id = add_node !g n in
    g := g';
    id
  in
  let new_containers = ref [] in
  let compute_inputs = ref [] in
  List.iter
    (fun field ->
      let offsets = Stencil.offsets_read accesses field in
      let sr = "sr_" ^ Ident.of_name s.Stencil.name ^ "__" ^ Ident.of_name field in
      (* A full-rank field read at several offsets streams through a shift
         register of the paper's size; lower-dimensional fields are
         prefetched. *)
      let size =
        match List.find_opt (fun (b : Internal_buffer.t) -> String.equal b.field field) buffers with
        | Some b -> b.size_elements
        | None -> 0
      in
      if size > 0 then begin
        new_containers :=
          { cname = sr; dtype = Dtype.F32; extent = [ size ]; storage = On_chip;
            transient = true; axes_hint = None }
          :: !new_containers;
        (* As in DaCe, each use of a container gets its own access node:
           one for the pre-shift state and one for the written state, so
           the dataflow inside the scope stays acyclic. *)
        let sr_read = node (Access sr) in
        let sr_write = node (Access sr) in
        (* Shift phase: move every entry by W, fully unrolled. *)
        let shift_body, _ =
          add_node empty_graph
            (Tasklet
               {
                 label = Printf.sprintf "shift_%s" field;
                 body = { Expr.lets = []; result = Expr.Var "in" };
               })
        in
        let shift =
          node
            (Unrolled_map { label = Printf.sprintf "shift_%s" field; width = size - w; body = shift_body })
        in
        g := add_edge !g ~src:sr_read ~dst:shift ~data:sr ~subset:"[i]";
        g := add_edge !g ~src:shift ~dst:sr_write ~data:sr ~subset:"[i+W]";
        (* Update phase: a tasklet reads the input stream into the head of
           the register. *)
        let update =
          node
            (Tasklet
               {
                 label = Printf.sprintf "update_%s" field;
                 body = { Expr.lets = []; result = Expr.Var "in" };
               })
        in
        let in_access = node (Access field) in
        g := add_edge !g ~src:in_access ~dst:update ~data:field ~subset:"[stream]";
        g := add_edge !g ~src:update ~dst:sr_write ~data:sr ~subset:"[0:W]";
        compute_inputs := (sr_write, sr, offsets) :: !compute_inputs
      end
      else begin
        let in_access = node (Access field) in
        compute_inputs := (in_access, field, offsets) :: !compute_inputs
      end)
    (Stencil.fields_read accesses);
  (* Compute phase: taps feed the computation tasklet, whose result passes
     through a conditional write guard that drops initialization-phase
     outputs. *)
  let compute = node (Tasklet { label = "compute"; body = s.Stencil.body }) in
  List.iter
    (fun (src, data, offsets) ->
      g :=
        add_edge !g ~src ~dst:compute ~data
          ~subset:(Sf_support.Util.string_concat_map " " subset_of_offsets offsets))
    (List.rev !compute_inputs);
  let guard =
    node
      (Tasklet
         {
           label = "write_if_not_initializing";
           body = { Expr.lets = []; result = Expr.Var "value" };
         })
  in
  g := add_edge !g ~src:compute ~dst:guard ~data:"value" ~subset:"[scalar]";
  let out_access = node (Access s.Stencil.name) in
  g := add_edge !g ~src:guard ~dst:out_access ~data:s.Stencil.name ~subset:"[stream]";
  (!g, !new_containers)

let expand_library_nodes (t : t) =
  let analysis = t.analysis in
  let checked = Delay_buffer.checked analysis in
  let p = Program.Checked.program checked in
  let device_of = Hashtbl.create 16 in
  List.iter
    (fun st ->
      List.iter
        (fun (_, n) ->
          match n with
          | Stencil_node { stencil; device } -> Hashtbl.replace device_of stencil.Stencil.name device
          | Access _ | Tasklet _ | Pipeline _ | Unrolled_map _ -> ())
        st.body.nodes)
    t.states;
  (* An input is copied to every device that reads it: a full-rank one
     streams on the reader's device, a lower-dimensional one is
     prefetched there. *)
  let stream ~src ~dst =
    let dst_rank = Hashtbl.find device_of dst in
    let src_rank = Option.value (Hashtbl.find_opt device_of src) ~default:dst_rank in
    if src_rank = dst_rank then Channel { src; dst; depth = Delay_buffer.buffer_for analysis ~src ~dst }
    else Smi { src; dst; src_rank; dst_rank }
  in
  let input ~dst field =
    match Program.Checked.find checked field with
    | Program.Input f when Field.rank f < Program.rank p -> Prefetch f
    | Program.Input _ | Program.Op _ -> stream ~src:field ~dst
  in
  let pipeline (s : Stencil.t) device =
    let name = s.Stencil.name in
    let { Delay_buffer.buffers; init_cycles; compute_cycles } = Delay_buffer.node_info analysis name in
    let body, containers =
      expand_stencil p.Program.vector_width buffers s (Program.Checked.accesses checked name)
    in
    ( Pipeline
        {
          label = Printf.sprintf "pipeline_%s" name;
          stencil = s;
          device;
          iteration = p.Program.shape;
          init_cycles;
          drain_cycles = compute_cycles;
          words = Program.cells p / p.Program.vector_width;
          registers =
            List.map (fun b -> { buffer = b; start = Internal_buffer.fill_step buffers b }) buffers;
          inputs = List.map (input ~dst:name) (Program.Checked.reads checked name);
          outputs =
            List.map (fun c -> stream ~src:name ~dst:c) (Program.Checked.consumers checked name)
            @ if List.exists (String.equal name) p.Program.outputs then [ Writer name ] else [];
          body;
        },
      containers )
  in
  let new_containers = ref [] in
  let states =
    List.map
      (fun st ->
        let nodes =
          List.map
            (fun (id, n) ->
              match n with
              | Stencil_node { stencil; device } ->
                  let expanded, extra = pipeline stencil device in
                  new_containers := extra @ !new_containers;
                  (id, expanded)
              | Access _ | Tasklet _ | Pipeline _ | Unrolled_map _ -> (id, n))
            st.body.nodes
        in
        { st with body = { st.body with nodes } })
      t.states
  in
  let with_new = t.containers @ List.rev !new_containers in
  (* Expanded scopes reference stencil results by their bare names
     (the connector the outer graph wires to a stream); declare port
     containers for any name not already present. *)
  let ports =
    List.filter_map
      (fun (s : Stencil.t) ->
        let name = s.Stencil.name in
        if List.exists (fun c -> String.equal c.cname name) with_new then None
        else
          Some
            {
              cname = name;
              dtype = p.Program.dtype;
              extent = [];
              storage = Stream { depth = 0 };
              transient = true;
              axes_hint = None;
            })
      p.Program.stencils
  in
  { t with states; containers = with_new @ ports }

let pipelines (t : t) =
  List.concat_map
    (fun st -> List.filter_map (fun (_, n) -> match n with Pipeline pl -> Some pl | _ -> None) st.body.nodes)
    t.states

let rec graph_acyclic g =
  let module G = Sf_support.Dgraph.Make (Int) in
  let dg = List.fold_left (fun dg (id, _) -> G.add_vertex dg id ()) G.empty g.nodes in
  let dg =
    List.fold_left
      (fun dg e ->
        if G.mem_vertex dg e.src && G.mem_vertex dg e.dst && e.src <> e.dst then
          G.add_edge dg ~src:e.src ~dst:e.dst ()
        else dg)
      dg g.edges
  in
  G.is_dag dg
  && List.for_all
       (fun (_, n) ->
         match n with
         | Pipeline { body; _ } | Unrolled_map { body; _ } -> graph_acyclic body
         | Access _ | Tasklet _ | Stencil_node _ -> true)
       g.nodes

let validate (t : t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.cname then err "duplicate container %s" c.cname
      else Hashtbl.add seen c.cname ())
    t.containers;
  let rec check_graph path g =
    let ids = List.map fst g.nodes in
    List.iter
      (fun e ->
        if not (List.mem e.src ids) then err "%s: edge references unknown source %d" path e.src;
        if not (List.mem e.dst ids) then err "%s: edge references unknown destination %d" path e.dst)
      g.edges;
    List.iter
      (fun (_, n) ->
        match n with
        | Access name ->
            (* Access nodes inside expansions may reference shift registers
               declared at the SDFG level. *)
            if not (Hashtbl.mem seen name) then err "%s: access to unknown container %s" path name
        | Pipeline { label; body; _ } -> check_graph (path ^ "/" ^ label) body
        | Unrolled_map { label; body; _ } -> check_graph (path ^ "/" ^ label) body
        | Tasklet _ | Stencil_node _ -> ())
      g.nodes;
    if not (graph_acyclic g) then err "%s: dataflow graph has a cycle" path
  in
  List.iter (fun st -> check_graph st.slabel st.body) t.states;
  match List.rev !errors with [] -> Ok () | errs -> Error errs

let stats (t : t) =
  let rec count g =
    List.fold_left
      (fun (n, e) (_, node) ->
        match node with
        | Pipeline { body; _ } | Unrolled_map { body; _ } ->
            let n', e' = count body in
            (n + 1 + n', e + e')
        | Access _ | Tasklet _ | Stencil_node _ -> (n + 1, e))
      (0, List.length g.edges)
      g.nodes
  in
  let nodes, edges =
    List.fold_left
      (fun (n, e) st ->
        let n', e' = count st.body in
        (n + n', e + e'))
      (0, 0) t.states
  in
  (List.length t.states, nodes, edges)

let pp fmt (t : t) =
  let states, nodes, edges = stats t in
  Format.fprintf fmt "sdfg %s: %d state(s), %d node(s), %d edge(s), %d container(s)" t.name
    states nodes edges (List.length t.containers)
