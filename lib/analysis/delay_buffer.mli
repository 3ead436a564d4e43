(** Delay buffers for inter-stencil reuse and deadlock freedom (paper,
    Sec. IV-B, Figs. 4 and 8).

    Edges between stencils replace off-chip round trips with direct
    dataflow, but a node whose inputs arrive through paths of different
    latency can deadlock: the fast path blocks on a full channel while the
    slow path starves. StencilFlow sizes the FIFO on each edge so that
    enough credits exist to cover the worst-case path-delay difference.

    Latency contributions accumulate along all paths through the DAG,
    including the initialization phase of the receiving node itself
    (Sec. IV-B): for an edge [e = (u, v)], [avail u] is the cycle at
    which [u]'s first word emerges (accumulated init + compute latencies
    along the longest path), and [need e] is the pipeline step at which
    [v] first consumes that field — fields with smaller internal buffers
    start filling later (Sec. IV-A), so edges into the same node can have
    different needs. [v] starts stepping at
    [t0 = max(0, max_e (avail - need))]; the buffer on [e] is
    [t0 + need e - avail u], and the edge with the largest slack gets
    zero. All quantities are in cycles = vector words (one word of W
    elements moves per cycle). *)

type node_info = {
  init_cycles : int;  (** Internal-buffer initialization (Sec. IV-A). *)
  compute_cycles : int;  (** Critical path of the computation AST. *)
  buffers : Internal_buffer.t list;
      (** {!Internal_buffer.of_accesses} of the stencil; empty for inputs. *)
}

type index
(** [nodes], [edges] and [timing] keyed by name, for the O(1) lookups
    below, and the check the analysis was derived from. *)

type t = {
  program : Sf_ir.Program.t;
  nodes : (string * node_info) list;  (** Stencils and inputs (inputs are zero). *)
  edges : ((string * string) * int) list;  (** Buffer depth per edge, in words. *)
  latency_cycles : int;  (** L of Eq. 1: the longest path through the DAG. *)
  timing : (string * (int * int)) list;
      (** Per stencil, the derived schedule: the cycle its pipeline can
          take its first step, and the cycle its first output word
          emerges ([t0 + init + compute]). *)
  index : index;  (** Built by {!of_checked}. *)
}

val of_checked : ?config:Latency.config -> Sf_ir.Program.checked -> t
(** Runs the full analysis on the facts of the program's check: its
    topological order, each stencil's reads and accesses. *)

val analyze : ?config:Latency.config -> Sf_ir.Program.t -> t
(** {!of_checked} of {!Sf_ir.Program.check_exn}: raises
    [Invalid_argument] if the program does not validate. *)

val checked : t -> Sf_ir.Program.checked
(** The check of [program] the analysis was derived from: what a later
    stage of the same request reads instead of checking again. *)

val node_info : t -> string -> node_info
(** Raises [Not_found] for unknown nodes. *)

val start_cycle : t -> string -> int
(** The cycle a stencil's pipeline takes its first step (t0 above). *)

val output_cycle : t -> string -> int
(** The cycle a stencil's first output word emerges; the program latency
    L is the maximum over stencils. *)

val buffer_for : t -> src:string -> dst:string -> int
(** Delay-buffer depth (words) for an edge; raises [Not_found] if the edge
    does not exist. *)

val tightest_edge : t -> ((string * string) * int) option
(** The edge with the smallest strictly positive analysed depth — where
    under-provisioning bites first. [None] when every edge is zero
    (pure chains have no path-delay differences to absorb). *)

val total_delay_buffer_words : t -> int
(** Sum of all edge buffers — on-chip memory pressure of synchronization. *)

val total_fast_memory_elements : t -> int
(** Internal buffers + delay buffers, in elements: the program's total
    on-chip buffering requirement. *)

val pp : Format.formatter -> t -> unit
