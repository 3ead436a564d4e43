(** A data-centric dataflow representation modelled on DaCe's Stateful
    DataFlow multiGraphs (paper, Sec. V), and the one place the kernel
    schedule is derived.

    Data movement (memlets on edges) is explicit and separate from
    computation (tasklets) and from data containers (access nodes);
    acyclic dataflow graphs are nested inside states, and states form the
    control flow. Two extensions from the paper are included: {e library
    nodes} — here the [Stencil] node — which carry domain-specific
    semantics and expand into subgraphs, and {e pipeline scopes},
    annotated with initialization and drain phases, which wrap the
    per-cell processing of an expanded stencil (Fig. 12).

    Code is printed from the expansion (Sec. VI): {!of_checked} lowers a
    checked program under a device placement, with the stream depths of
    its delay-buffer analysis, and {!expand_library_nodes} turns every
    stencil node into a pipeline scope that carries what both backends
    print — the shift registers with their fill steps, the init cycles,
    the word count and the kernel's ports. The OpenCL and Vitis backends
    print these and derive none of them. *)

type storage =
  | Off_chip  (** DRAM-backed array. *)
  | On_chip  (** BRAM/register buffer (shift registers, Fig. 6). *)
  | Stream of { depth : int }  (** FIFO channel with a fixed depth. *)

type container = {
  cname : string;
  dtype : Sf_ir.Dtype.t;
  extent : int list;  (** [] for scalars. *)
  storage : storage;
  transient : bool;  (** Not visible outside the SDFG. *)
  axes_hint : int list option;
      (** Which iteration axes a lower-dimensional container spans
          (metadata recorded at lowering time; extents alone are
          ambiguous when axes share an extent). *)
}

type node_id = int

(** Where a pipeline reads a field or sends its result. *)
type port =
  | Channel of { src : string; dst : string; depth : int }
      (** A stream on one device, with the analysed delay-buffer depth in
          words (0 where the analysis needs no slack). *)
  | Smi of { src : string; dst : string; src_rank : int; dst_rank : int }
      (** A stream between devices. *)
  | Writer of string  (** The memory writer of the output of that name. *)
  | Prefetch of Sf_ir.Field.t
      (** A lower-dimensional input, read from its prefetch array. *)

type register = {
  buffer : Sf_analysis.Internal_buffer.t;
  start : int;
      (** Its fill step: the pipeline step its input stream starts at
          ({!Sf_analysis.Internal_buffer.fill_step}). *)
}

type node =
  | Access of string  (** Read/write point for a container. *)
  | Tasklet of { label : string; body : Sf_ir.Expr.body }
  | Stencil_node of { stencil : Sf_ir.Stencil.t; device : int }
      (** The domain-specific library node, placed on a device. *)
  | Pipeline of pipeline
  | Unrolled_map of { label : string; width : int; body : graph }
      (** Fully unrolled parametric scope (the shift phase trapezoids). *)

(** An expanded stencil: the Fig. 12 scope and the schedule its kernel
    runs. *)
and pipeline = {
  label : string;
  stencil : Sf_ir.Stencil.t;
  device : int;
  iteration : int list;  (** Iteration-space extents of the scope. *)
  init_cycles : int;
  drain_cycles : int;
  words : int;  (** Vector words computed: cells / W. *)
  registers : register list;  (** One per full-rank field read, in read order. *)
  inputs : port list;  (** One per field read, in read order. *)
  outputs : port list;
      (** One per consumer in program order, then the memory writer when
          the stencil is a program output. *)
  body : graph;
}

and edge = { src : node_id; dst : node_id; data : string; subset : string }
(** A memlet: which container moves and a textual description of the
    accessed subset (offsets, ranges). *)

and graph = { nodes : (node_id * node) list; edges : edge list }

type state = { slabel : string; body : graph }

type t = {
  name : string;
  containers : container list;
  states : state list;  (** Executed in sequence (linear control flow). *)
  analysis : Sf_analysis.Delay_buffer.t;
      (** The analysis the SDFG was lowered with, and through
          {!Sf_analysis.Delay_buffer.checked} the checked program. *)
  devices : int;  (** Devices the stencils are placed on. *)
}

val empty_graph : graph
val add_node : graph -> node -> graph * node_id
val add_edge : graph -> src:node_id -> dst:node_id -> data:string -> subset:string -> graph

val find_container : t -> string -> container option

val of_analysis : ?partition:Sf_mapping.Partition.t -> Sf_analysis.Delay_buffer.t -> t
(** Lower the program an analysis was derived from into a single-state
    SDFG: one [Stencil_node] per stencil on its device (device 0 without
    a partition), access nodes for every container, stream-typed
    containers on inter-stencil edges with the delay-buffer depths of
    Sec. IV-B, and off-chip containers for program inputs and outputs.
    Raises [Invalid_argument] when the partition places no device for a
    stencil. *)

val of_checked : ?partition:Sf_mapping.Partition.t -> Sf_ir.Program.checked -> t
(** {!of_analysis} of the program's {!Sf_analysis.Delay_buffer.of_checked}. *)

val of_program : Sf_ir.Program.t -> t
(** {!of_checked} of {!Sf_ir.Program.check_exn}. *)

val expand_library_nodes : t -> t
(** Expand every [Stencil_node] into the Fig. 12 pipeline scope: a shift
    phase (unrolled map moving each shift-register entry by W), an update
    phase reading new values from the input streams, and a compute phase
    feeding the computation tasklet guarded by an output-write tasklet.
    Shift-register containers of the paper's size are added per buffered
    field. The scope's schedule comes from the analysis and check the SDFG
    was lowered with. *)

val program : t -> Sf_ir.Program.t
(** The program the SDFG was lowered from. *)

val pipelines : t -> pipeline list
(** The pipeline scopes of an expanded SDFG, in program order. *)

val validate : t -> (unit, string list) result
(** Structural invariants: unique/known container names, edges reference
    existing nodes, access nodes name known containers, graphs acyclic,
    tasklet inputs available. *)

val stats : t -> int * int * int
(** (states, nodes, edges) counted recursively — used by tests and by the
    transformation reports. *)

val pp : Format.formatter -> t -> unit
