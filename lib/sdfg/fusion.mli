(** Spatial stencil fusion (paper, Sec. V-B, Fig. 11).

    On a spatial architecture every stencil already runs in a fully
    "fused" global pipeline, so fusing two stencils does not change the
    schedule; instead it combines initialization phases (shortening the
    critical path when the pair lies on it), merges internal buffers for
    shared fields, coalesces delay buffers, exposes common-subexpression
    elimination, and coarsens nodes to improve the useful-logic ratio.

    Preconditions for fusing producer [u] into consumer [v] (paper):
    - [u] and [v] operate on the same iteration shape (always true inside
      one program) with the same boundary-condition definitions;
    - the connecting container has degree 2 — [u] has exactly one
      consumer, so all stencils keep a single output;
    - no other instance of [u] exists — [u] is not written to off-chip
      memory — so removing it adds no extra memory traffic.

    The rewrite substitutes, for each access [u\[d\]] in [v], the body of
    [u] with every access shifted by [d]. Fused and unfused programs
    agree exactly on cells where no boundary condition fires; at boundary
    cells the fused program applies predication at the combined offsets,
    as generated hardware does. *)

type report = {
  fused_pairs : (string * string) list;  (** (producer, consumer) in order. *)
  stencils_before : int;
  stencils_after : int;
}

val can_fuse : Sf_ir.Program.t -> producer:string -> consumer:string -> (unit, string) result
(** Check the preconditions, returning the violated one. *)

val fuse_pair : Sf_ir.Program.t -> producer:string -> consumer:string -> Sf_ir.Program.t
(** Fuse one edge; raises [Invalid_argument] if {!can_fuse} fails. The
    consumer keeps its name; the producer disappears. The substitution
    runs on the hash-consed DAG and the fused body is re-extracted
    ({!Sf_ir.Dag.extract}), so sharing between the inlined producer
    copies survives as let bindings instead of being duplicated. *)

val fuse_all : ?max_body_size:int -> Sf_ir.Program.t -> Sf_ir.Program.t * report
(** Aggressive fusion to fixpoint, as used for the paper's experiments:
    fuse the first legal pair in topological order, then start over on
    the fused program, until no pair is left. [max_body_size] (default
    unlimited) bounds the {e work} size of the candidate fused body —
    distinct DAG nodes, each shared value counted once
    ({!Sf_ir.Dag.work_size}) — which is what the pipeline actually
    instantiates; purely textual blow-up from repeated substitution no
    longer vetoes a profitable fusion.

    The result is that of repeated {!fuse_pair}, computed in one pass
    over DAGs: bodies stay DAGs between rounds, and each fused body is
    extracted, and the program validated, once at the end. *)

val interior_radius : Sf_ir.Program.t -> int
(** The program's accumulated influence radius
    ({!Sf_analysis.Influence.max_radius}): cells at least this far from
    every domain face never trigger boundary handling anywhere in the
    DAG. *)

val equivalence_radii : original:Sf_ir.Program.t -> fused:Sf_ir.Program.t -> int list
(** Per-axis version of {!equivalence_radius} — tighter for programs with
    axes the stencils never offset along (e.g. the vertical axis of
    horizontal diffusion). *)

val equivalence_radius : original:Sf_ir.Program.t -> fused:Sf_ir.Program.t -> int
(** Cells at least this far from every face agree exactly between the two
    program versions. The maximum of both influences is required: fusing
    a producer that reads only scalar or lower-dimensional fields absorbs
    the consumer's offsets, so the fused program's own radius can
    underestimate where the {e unfused} program applied its boundary
    conditions. *)

val max_probe_cells : int
(** 65536: the largest program {!interior_agrees} executes. *)

val interior_agrees : original:Sf_ir.Program.t -> Sf_ir.Program.t -> bool option
(** Probe check of a transformed program against its [original]: run both
    on the same random inputs ({!Sf_reference.Interp.random_inputs} of
    [original]) and compare every output of [original] on the cells at
    least {!equivalence_radii} from each face (relative tolerance 1e-9;
    NaN matches NaN). [None] when the shapes differ, [original] has more
    than {!max_probe_cells} cells, or no interior cell exists. *)
