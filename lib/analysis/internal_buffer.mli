(** Internal buffers for intra-stencil reuse (paper, Sec. IV-A).

    When a stencil accesses the same input field at multiple offsets, a
    single on-chip buffer (a shift register in hardware, Fig. 6) holds the
    sliding window between the lowest and highest accessed address. The
    buffer size is the largest distance between any two offsets in memory
    order, plus the vector width W: e.g. in a 3D space {K,J,I}, accesses
    [0,1,0] and [0,-1,0] buffer two rows (2I + W elements), while [0,0,0]
    and [1,0,0] buffer a 2D slice (2IJ + W, Fig. 7).

    The stencil's initialization phase is the maximum buffer size over its
    fields; smaller buffers start filling later so that all fill
    simultaneously. Lower-dimensional (non-full-rank) fields are
    prefetched and contribute no initialization delay (DESIGN.md).

    This module is the one place that derives a field's register shape
    from its accesses and W; the delay-buffer analysis, the simulator's
    stencil units, the SDFG expansion and both codegen backends read it.
    The register the hardware holds is the span plus a read-ahead:
    [register_elements = init_words * W + W + max 0 (-min_flat)]. The
    init phase reads [init_elements] ahead of the first output (rounded
    up to whole words), so at compute time the newest element sits that
    far past the center, and the register must keep it next to the
    reach behind the center. The seed parity signatures fix that
    schedule, so the register is larger than the paper's [size_elements],
    which the resource model and the SDFG container still charge. *)

type t = {
  field : string;
  offsets : int list list;  (** Distinct access offsets, in program order. *)
  min_flat : int;  (** Lowest flattened offset in memory order. *)
  max_flat : int;  (** Highest flattened offset in memory order. *)
  size_elements : int;
      (** The paper's buffer size: [max_flat - min_flat + W]; 0 when the
          field is accessed at a single offset. *)
  init_elements : int;
      (** Extra input elements (beyond the one-per-output streaming rate)
          that must arrive before the first output can be produced:
          [max (size_elements - 1) (max 0 max_flat)] for buffered fields
          (the paper's initialization phase max{B_i}, modulo the element
          consumed in the producing cycle), and [max 0 max_flat] for
          single-access fields. The cycle-level simulator realizes exactly
          this schedule, so analysis and measurement agree. *)
  init_words : int;
      (** The read-ahead in words: [ceil (init_elements / W)]. *)
  register_elements : int;
      (** Elements of the shift register the stencil unit holds and the
          backends declare: [init_words * W + W + max 0 (-min_flat)]. *)
}

val flatten_offset : shape:int list -> int list -> int
(** Row-major flattening of a full-rank offset vector. *)

val of_accesses : Sf_ir.Program.t -> (string * int list) list -> t list
(** [of_accesses p accesses]: one entry per full-rank field a stencil of
    the checked program [p] reads (buffered or not), in order of first
    read, from the stencil's accesses ({!Sf_ir.Program.Checked.accesses},
    or {!Sf_ir.Stencil.accesses} of its body). *)

val init_cycles : t list -> int
(** A stencil's initialization phase in cycles from its {!of_accesses}
    buffers: the max over fields of [init_words], i.e. the max of
    [init_elements] (paper: max of the internal buffer sizes) divided by
    W and rounded up: vectorization shortens initialization phases
    (Sec. IV-C). *)

val fill_step : t list -> t -> int
(** [fill_step all b]: the pipeline step at which the stream of [b]'s
    field starts, [init_cycles all - b.init_words]; the fields with the
    longest read-ahead start at 0. *)

val tap : t -> int -> int
(** [tap b flat]: the register index of lane 0's element at flat offset
    [flat] (lane [v] is at [tap b flat + v]). *)

val pp : Format.formatter -> t -> unit
