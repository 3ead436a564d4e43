open Sf_ir

type node_info = { init_cycles : int; compute_cycles : int; buffers : Internal_buffer.t list }

(* The lists of [t], keyed for the lookups below, and the check they
   were derived from. *)
type index = {
  checked : Program.checked;
  node_of : (string, node_info) Hashtbl.t;
  edge_of : (string * string, int) Hashtbl.t;
  timing_of : (string, int * int) Hashtbl.t;
}

type t = {
  program : Program.t;
  nodes : (string * node_info) list;
  edges : ((string * string) * int) list;
  latency_cycles : int;
  timing : (string * (int * int)) list;
      (* per stencil: (t0 = first pipeline step's cycle,
                       avail = first output word's cycle) *)
  index : index;
}

(* For every node v, in topological order, we track [avail v]: the cycle at
   which v's first output word emerges, assuming continuous streaming.
   For an edge e = (u, v) carrying field u into stencil v:

   - [need e] is the pipeline step at which v first consumes a word of u:
     v's initialization phase is init_max(v), but the field's own buffer
     only starts filling at its [Internal_buffer.fill_step]
     (Sec. IV-A: the largest buffers start reading immediately);
   - v's step 0 can happen no earlier than
     [t0 v = max(0, max_e (avail u - need e))];
   - the delay buffer must hold everything u produces before v starts
     draining the edge: [buffer e = t0 v + need e - avail u]. The edge
     with the largest slack gets zero, as the paper observes;
   - [avail v = t0 v + init_max v + compute v].

   This realizes the paper's rule of accumulating latencies along all
   paths "including the contribution of the initialization phase of the
   node itself" (Sec. IV-B): each in-edge carries the consuming node's
   per-field start offset, which both synchronizes joins (Fig. 4) and
   compensates differing internal-buffer spans within one stencil. *)
let of_checked ?(config = Latency.default) checked =
  let p = Program.Checked.program checked in
  let full_rank = Program.rank p in
  let stencil_info (s : Stencil.t) =
    let buffers = Internal_buffer.of_accesses p (Program.Checked.accesses checked s.Stencil.name) in
    let init_cycles = Internal_buffer.init_cycles buffers in
    { init_cycles; compute_cycles = Latency.critical_path config s.Stencil.body; buffers }
  in
  let nodes =
    List.map
      (fun f -> (f.Field.name, { init_cycles = 0; compute_cycles = 0; buffers = [] }))
      p.Program.inputs
    @ List.map (fun s -> (s.Stencil.name, stencil_info s)) p.Program.stencils
  in
  (* The first binding of a key wins, as in [List.assoc]. *)
  let table l = Hashtbl.of_seq (List.to_seq (List.rev l)) in
  let node_of = table nodes in
  let avail : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.replace avail f.Field.name 0) p.Program.inputs;
  let timing = ref [] in
  let edges = ref [] in
  List.iter
    (fun (s : Stencil.t) ->
      let v = s.Stencil.name in
      let info = Hashtbl.find node_of v in
      let need field =
        Internal_buffer.fill_step info.buffers
          (List.find (fun (b : Internal_buffer.t) -> String.equal b.field field) info.buffers)
      in
      (* Only full-rank producers stream through channels; lower-
         dimensional inputs are prefetched and impose no edge. *)
      let streaming_preds =
        List.filter
          (fun u ->
            match Program.Checked.find checked u with
            | Program.Input f -> Field.rank f = full_rank
            | Program.Op _ -> true)
          (Program.Checked.reads checked v)
      in
      let annotated =
        List.map (fun u -> (u, need u, Hashtbl.find avail u)) streaming_preds
      in
      let t0 = List.fold_left (fun acc (_, need, av) -> max acc (av - need)) 0 annotated in
      List.iter (fun (u, need, av) -> edges := ((u, v), t0 + need - av) :: !edges) annotated;
      let out = t0 + info.init_cycles + info.compute_cycles in
      timing := (v, (t0, out)) :: !timing;
      Hashtbl.replace avail v out)
    (Program.Checked.order checked);
  let latency_cycles =
    List.fold_left (fun acc s -> max acc (Hashtbl.find avail s.Stencil.name)) 0 p.Program.stencils
  in
  let edges = List.rev !edges and timing = List.rev !timing in
  let index = { checked; node_of; edge_of = table edges; timing_of = table timing } in
  { program = p; nodes; edges; latency_cycles; timing; index }

let analyze ?config p = of_checked ?config (Program.check_exn p)

let checked t = t.index.checked
let node_info t name = Hashtbl.find t.index.node_of name
let start_cycle t name = fst (Hashtbl.find t.index.timing_of name)
let output_cycle t name = snd (Hashtbl.find t.index.timing_of name)
let buffer_for t ~src ~dst = Hashtbl.find t.index.edge_of (src, dst)

(* The smallest positive analysed depth: the edge where under-
   provisioning experiments bite first. All-zero graphs (pure chains)
   have no tight edge — nothing to under-provision. *)
let tightest_edge t =
  List.fold_left
    (fun acc (e, b) ->
      if b <= 0 then acc
      else match acc with Some (_, best) when best <= b -> acc | _ -> Some (e, b))
    None t.edges

let total_delay_buffer_words t = List.fold_left (fun acc (_, b) -> acc + b) 0 t.edges

let total_fast_memory_elements t =
  let w = t.program.Program.vector_width in
  let internal =
    List.fold_left
      (fun acc (_, i) ->
        List.fold_left (fun acc (b : Internal_buffer.t) -> acc + b.size_elements) acc i.buffers)
      0 t.nodes
  in
  internal + (total_delay_buffer_words t * w)

let pp fmt t =
  Format.fprintf fmt "delay analysis of %s: L = %d cycles@." t.program.Program.name
    t.latency_cycles;
  List.iter
    (fun (v, i) ->
      if i.init_cycles + i.compute_cycles > 0 then
        Format.fprintf fmt "  node %s: init %d + compute %d cycles@." v i.init_cycles
          i.compute_cycles)
    t.nodes;
  List.iter
    (fun ((u, v), b) -> if b > 0 then Format.fprintf fmt "  edge %s -> %s: buffer %d words@." u v b)
    t.edges
