(** A data-centric dataflow representation modelled on DaCe's Stateful
    DataFlow multiGraphs (paper, Sec. V).

    Data movement (memlets on edges) is explicit and separate from
    computation (tasklets) and from data containers (access nodes);
    acyclic dataflow graphs are nested inside states, and states form the
    control flow. Two extensions from the paper are included: {e library
    nodes} — here the [Stencil] node — which carry domain-specific
    semantics and expand into subgraphs, and {e pipeline scopes},
    annotated with initialization and drain phases, which wrap the
    per-cell processing of an expanded stencil (Fig. 12). *)

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

type node =
  | Access of string  (** Read/write point for a container. *)
  | Tasklet of { label : string; body : Sf_ir.Expr.body }
  | Stencil_node of Sf_ir.Stencil.t  (** The domain-specific library node. *)
  | Pipeline of {
      label : string;
      iteration : int list;  (** Iteration-space extents of the scope. *)
      init_cycles : int;
      drain_cycles : int;
      body : graph;
    }
  | Unrolled_map of { label : string; width : int; body : graph }
      (** Fully unrolled parametric scope (the shift phase trapezoids). *)

and edge = { src : node_id; dst : node_id; data : string; subset : string }
(** A memlet: which container moves and a textual description of the
    accessed subset (offsets, ranges). *)

and graph = { nodes : (node_id * node) list; edges : edge list }

type state = { slabel : string; body : graph }

type t = {
  name : string;
  containers : container list;
  states : state list;  (** Executed in sequence (linear control flow). *)
}

val empty_graph : graph
val add_node : graph -> node -> graph * node_id
val add_edge : graph -> src:node_id -> dst:node_id -> data:string -> subset:string -> graph

val find_container : t -> string -> container option

val of_program : Sf_ir.Program.t -> t
(** Lower a stencil program into a single-state SDFG: one [Stencil_node]
    per stencil, access nodes for every container, stream-typed
    containers on inter-stencil edges with the delay-buffer depths of
    Sec. IV-B, and off-chip containers for program inputs and outputs.
    Raises [Invalid_argument] as {!Sf_ir.Program.check_exn} does. *)

val of_checked : Sf_ir.Program.checked -> t
(** {!of_program} of a program already checked. *)

val extract_program : t -> (Sf_ir.Program.t, string) result
(** The canonicalization direction of Sec. VII: recover a stencil program
    from an SDFG whose states contain stencil library nodes. Inverse of
    {!of_program} up to stream depths. *)

val extract_checked : t -> (Sf_ir.Program.checked, string) result
(** {!extract_program} with what its check derived. *)

val expand_library_nodes : t -> t
(** Expand every [Stencil_node] into the Fig. 12 pipeline scope: a shift
    phase (unrolled map moving each shift-register entry by W), an update
    phase reading new values from the input streams, and a compute phase
    feeding the computation tasklet guarded by an output-write tasklet.
    Shift-register containers are added per buffered field. *)

val validate : t -> (unit, string list) result
(** Structural invariants: unique/known container names, edges reference
    existing nodes, access nodes name known containers, graphs acyclic,
    tasklet inputs available. *)

val stats : t -> int * int * int
(** (states, nodes, edges) counted recursively — used by tests and by the
    transformation reports. *)

val pp : Format.formatter -> t -> unit
