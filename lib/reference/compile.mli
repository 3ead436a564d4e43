(** The one evaluator for stencil bodies: a flat, lane-batched program.

    {!lower} turns the hash-consed DAG of a body ({!Sf_ir.Dag}) into a
    straight-line program once. The lanes of a dispatch are consecutive
    cells of one innermost-axis (lane-axis) row, so two nodes that
    differ only by a constant lane offset compute one function of the
    row, read at two shifts. {!lower} groups such nodes into lane-shift
    classes, keyed bottom-up in one hash-consed pass, and emits one
    instruction per class: it runs over the dispatch's lanes widened by
    the class's shift spread, and each use reads it at its own shift.
    This is the software form of the shift register of Fig. 6: each
    value enters once and every tap shares it. A fused body that
    recomputes an intermediate at several lane offsets (StencilFusion,
    Sec. V) computes it once per row.

    Each load class is a slot the caller fills ({!fill}) with one run,
    constants are slots filled when the frame is made, and each other
    class is one instruction in depth-first post-order, whose value takes
    the slot of a dead one where it can. A computed class that exactly
    one operand of the body reads, and that is not the result, folds
    into its reader when the pair is a fused form: [x * (y - z)],
    [x * (y + z)], [(x + y) + z], [(x - y) + z], [(x * y) + z],
    [(x * y) - z] or [select (x > y, z, w)]. The reader, taken before its
    operands, then reads the inner operation's operands at the composed
    offsets and keeps the intermediate in a register, as a pipeline
    register holds it in the paper's stencil units (Sec. III-A, Fig.
    12); the folded class has no instruction and no slot.

    {!exec} runs the program over [lanes] cells held in one unboxed
    [float array], dispatching each instruction once and then looping
    over its cells, four per iteration, without allocating: one control
    step drives W lanes, as in the paper's stencil units (Sec. III-A,
    IV-C). The reference interpreter runs a whole row per dispatch; a
    simulated stencil unit runs the words of one row segment, up to a
    chunk of words at a time when the engine fast-forwards.

    Semantics are bit-identical to {!Interp.eval_expr}: comparisons yield
    1.0 / 0.0, any non-zero value is true, [&&] and [||] do not
    short-circuit, both select branches are computed, and bindings the
    result never reads are computed too, so their loads still feed the
    validity mask. A fused form computes its operations in the
    evaluator's operand order, so a NaN result carries the payload the
    evaluator's would. *)

type program

(** How a field's loads depend on the lane. *)
type lane =
  | Shifts
      (** The field spans the lane axis and has a [Constant] boundary: a
          load's value depends only on the cell it reads, so loads that
          differ only in their lane offset share one run. *)
  | Fixed
      (** The field spans the lane axis and has a [Copy] boundary: an
          out-of-bounds lane reads its own cell, so each lane offset is a
          load of its own. *)
  | Uniform  (** The field does not span the lane axis: every lane reads the same element. *)

val lower : lane:(string -> lane) -> Sf_ir.Expr.body -> program
(** [lane field] classifies the loads of [field]; with no field
    [Shifts], every node is its own class. Raises [Invalid_argument] on
    unbound or forward variable references and on calls with the wrong
    arity. *)

val loads : program -> (string * int list) array
(** The load runs, one per load class: load [k] lives in slot [k], and
    its offsets are those of the run's first cell (a shifting run starts
    at its class's least lane offset). *)

val instructions : program -> int
(** Instructions per dispatch: each runs once over the dispatch's lanes
    (widened by its class's shift spread), so this is the count executed
    per cell. A fused form is one instruction. *)

val stride : program -> lanes:int -> int
(** The slot stride of {!frame}[ p ~lanes]: [lanes] plus the widest
    class's shift spread. *)

val result : program -> stride:int -> int
(** The frame cell holding lane 0's result; lane [l]'s is [l] after it. *)

val frame : program -> lanes:int -> float array
(** A fresh frame for up to [lanes] cells with the constant slots
    filled; slot stride {!stride}, as many slots as are live at once. *)

val exec : program -> lanes:int -> float array -> unit
(** Run every instruction over the first [lanes] cells of a frame whose
    load slots are filled; the slot stride is the frame's, which must be
    at least {!stride}[ p ~lanes]. Lane [l]'s result is at
    [result p ~stride + l]. An instruction writes the first [lanes] cells
    of its slot plus its class's shift spread, and no other cell, four
    cells per loop iteration and then the last few one at a time (a libm
    call, one at a time throughout); each cell reads its operands before
    its own store, so a destination that shares an operand's slot is
    safe. It overwrites dead load slots: refill them ({!fill}) before
    each call. *)

val body : access:(field:string -> offsets:int list -> 'ctx -> float) -> Sf_ir.Expr.body -> 'ctx -> float
(** One-lane adapter: per call, read each load once through [access],
    then {!exec}. It knows no field's lanes, so every node is its own
    class. Not reentrant. *)

(** {2 Loads}

    Both callers fill load slots alike: the lanes of one dispatch are
    consecutive cells of one innermost-axis row, from multi-index [idx]. *)

type ring = { data : float array; cap : int; mutable newest : int; mutable head : int }
(** The last [cap] elements of a row-major element stream, up to element
    [newest]: element [e] is at [data.(e mod cap)], and
    [head = newest mod cap] ([-1] when empty), with [cap] the length of
    [data]. A stencil unit's input window is a ring, which it appends a
    run of words to with one ring copy and then advances [newest] and
    [head]; a whole tensor is a ring too ({!resident}). *)

val resident : float array -> ring

type tap
(** A load slot resolved against its source: the program axes it spans
    (strictly increasing; row-major over their extents in [shape]), the
    run's offsets and width, and the boundary condition. *)

val taps :
  program -> shape:int array -> (string -> ring * int array * Sf_ir.Boundary.t) -> tap array
(** One tap per load slot, in slot order; [source field] is the field's
    ring, the program axes it spans and its boundary, which must agree
    with the [lane] the program was lowered with. Raises
    [Invalid_argument] on a shifting run with a [Copy] boundary. *)

val fill :
  ?oob:bool array -> tap array -> idx:int array -> lanes:int -> stride:int -> float array -> unit
(** Fill each load slot [k], at [k * stride], from [taps.(k)]: cells
    [0, lanes) plus the run's shift spread, cell [c] reading the run's
    first offsets from lane [c]'s cell. The in-bounds cells of a slot
    are one run of the ring, copied with at most two [Array.blit]s
    (split where the run wraps the ring), or one repeated element when
    the tap does not span the innermost axis. An out-of-bounds cell
    takes the boundary value (for [Copy], the source's element at the
    lane's own cell). With [oob], [oob.(l)] is set to whether any
    original load of lane [l] was out of bounds: a run's least and
    greatest lane offsets are both loads of the body, so that is whether
    either end of lane [l]'s reads was. Only a shrink stencil's validity
    reads the flags, so its callers pass [oob] and the others skip the
    flag work; the frame is the same either way. Fails an assertion if a
    read element is not in the ring. *)

val advance : shape:int array -> int array -> int -> int -> unit
(** [advance ~shape idx d inc] adds [inc] to [idx.(d)], carrying into
    outer axes; the outermost axis does not wrap. *)
