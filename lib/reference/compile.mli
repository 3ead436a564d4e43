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

    Row-shift classes. A body's dispatches run along its rows in
    row-major order, so lane-shift classes that differ only by a
    constant row offset (the second-innermost axis) compute one function
    of the position, read at several rows: one row-shift class. When two
    or more of its lane-shift classes ("variants") have instructions and
    it is not the result's, it lives in a ring of [spread + 1] rows of
    the caller's frame, indexed by absolute row and lane, as the paper's
    fused stencil keeps the producer's values in its internal buffers
    (Sec. V-B, Fig. 6); [spread] is the greatest row spread of any ring.
    Each variant writes its row of the ring, and its readers read it
    there. A dispatch in the first [spread] rows of a plane (the
    prologue rows) runs every instruction, the full list. Past them,
    a dispatch runs the rolling list: only what the result reads, and of
    each ring only its newest row's variant (its top), reading the older
    rows that earlier dispatches' tops wrote. Where its lanes reach the
    first or last few lanes of a row, which the tops did not write for
    every older read, the variants that read there also run, over those
    lanes alone. Every list is a subset of one instruction array, and an
    instruction computes from the same operands in each, so results are
    bit-identical. Shifts along the plane axis (axis 0 of a 3-D program)
    are not shared: their rings would hold whole planes.

    Each load class is a slot the caller binds ({!fill}) to one run,
    constants are slots filled when the frame is made, a computed result
    takes a slot of its own, and each other class is one instruction in
    depth-first post-order, whose value takes the slot of a dead
    computed value where it can (a ring's classes take rows of their
    ring instead). No instruction writes a load's slot, and only the
    result's instruction writes the result's. A computed class that exactly one operand of the
    body reads, and that is not the result, folds into its reader when
    the pair is a fused form: [x * (y - z)], [x * (y + z)], [(x + y) + z],
    [(x - y) + z], [(x * y) + z], [(x * y) - z] or
    [select (x > y, z, w)]. The reader, taken before its operands, then
    reads the inner operation's operands at the composed offsets and
    keeps the intermediate in a register, as a pipeline register holds
    it in the paper's stencil units (Sec. III-A, Fig. 12); the folded
    class has no instruction and no slot.

    {!exec} runs the program over [lanes] cells of unboxed [float
    array]s, each operand read where its slot is bound (a load where its
    run lies in the caller's ring or tensor, when that run needs no
    copy), dispatching each instruction once and then looping over its
    cells, four per iteration, without allocating: one control
    step drives W lanes, as in the paper's stencil units (Sec. III-A,
    IV-C). The reference interpreter runs a row per dispatch; a
    simulated stencil unit runs the words of one row segment, one word
    per cycle or up to a chunk of words at a time when the engine
    fast-forwards.

    Semantics are bit-identical to {!Interp.eval_expr}: comparisons yield
    1.0 / 0.0, any non-zero value is true, [&&] and [||] do not
    short-circuit, both select branches are computed, and bindings the
    result never reads are computed too in the full list, and their loads
    always feed the validity mask. A fused form computes its operations
    in the evaluator's operand order, so a NaN result carries the payload
    the evaluator's would. *)

type program

(** How a field's loads depend on the position along one axis. *)
type lane =
  | Shifts
      (** The field spans the axis and has a [Constant] boundary: a
          load's value depends only on the cell it reads, so loads that
          differ only in their offset along the axis share one class. *)
  | Fixed
      (** The field spans the axis and has a [Copy] boundary: an
          out-of-bounds load reads its own cell, so each offset is a
          load of its own. *)
  | Uniform  (** The field does not span the axis: every position along it reads the same element. *)

val lower : ?rows:int * (string -> lane) -> lane:(string -> lane) -> Sf_ir.Expr.body -> program
(** [lane field] classifies the loads of [field] along the lane axis;
    with no field [Shifts], every node is its own class. With
    [rows = (cols, row)], dispatches run along rows of [cols] lanes in
    row-major order and [row field] classifies the loads along the row
    axis, whose offset is the one before the lane axis's (the last one
    when [field] does not span the lane axis); without it, no class is
    read at two rows and the program has no ring. Raises
    [Invalid_argument] on unbound or forward variable references and on
    calls with the wrong arity. *)

val loads : program -> (string * int list) array
(** The load runs, one per load class: load [k] lives in slot [k], and
    its offsets are those of the run's first cell (a shifting run starts
    at its class's least lane offset). *)

val rebind : program -> (string -> string) -> program
(** [rebind p f] is [p] with load [k]'s field [field] read from
    [f field]: the same instructions, rings and offsets. A program is
    immutable, so stages whose bodies differ only in the fields they
    read share one lowering ({!Interp.plan}), each under its own
    names. *)

val instructions : program -> int
(** Instructions per dispatch of the full list: each runs once over the
    dispatch's lanes (widened by its class's shift spread), so this is
    the count executed per cell. A fused form is one instruction. *)

val rolling_instructions : program -> int
(** Instructions per cell of a rolling dispatch (past the prologue
    rows, away from a row's ends); {!instructions} for a program
    without rings. *)

val rings : program -> int
(** The row-shift classes that live in a ring. *)

val stride : program -> lanes:int -> int
(** The slot stride of {!frame}[ p ~lanes]: [lanes] plus the widest
    class's shift spread; with rings, at least the row length given to
    {!lower} plus the widest ring's lane spread, since a ring row holds
    a whole row. *)

type frame
(** The scratch of one evaluation: the cells of the slots and ring rows,
    and, per slot, the array its cells are read from. *)

val frame : program -> lanes:int -> frame
(** A fresh frame for up to [lanes] cells with the constant slots
    filled; slot stride {!stride}, as many slots as are live at once,
    then the ring rows. Every slot reads its own cells until {!fill}
    binds a load slot or {!exec} the result's slot. *)

val cells : frame -> float array
(** The frame's cells: slot [k]'s cell [c] is at [k * stride + c]. A
    load slot that no {!fill} has bound reads the cells written here. *)

val same_lowering : program -> program -> bool
(** Whether two programs are one lowering, each perhaps {!rebind}ed:
    their frames are interchangeable. A program without rings carries
    nothing from one dispatch to the next in its frame, so callers that
    interleave the dispatches of such programs may share one frame; a
    program with rings needs each plane's dispatches in row-major order
    on one frame. *)

val exec : program -> idx:int array -> lanes:int -> frame -> dst:float array -> at:int -> unit
(** Run the program over [lanes] cells, for the dispatch at multi-index
    [idx] (lane 0's cell, as given to {!fill}), and write lane [l]'s
    result to [dst.((at + l) mod length dst)]. The frame's load slots
    must be filled or bound for [idx] ({!fill}); its slot stride must be
    at least {!stride}[ p ~lanes]. [idx] places the ring rows and columns
    and picks the list: the full list in a prologue row, else the
    rolling list for lanes away from the row's ends, reaching its first
    lanes, its last or both. A program with rings needs every dispatch
    of a plane, in row-major order, on one frame: a rolling dispatch
    reads rows that earlier ones wrote.

    Every operand that is not a ring's is read where its slot is bound:
    a load where {!fill} bound it, any other slot in the frame. An
    instruction writes the first [lanes] cells of its slot (or of its
    ring row, from the dispatch's column) plus its class's shift spread,
    and no other cell (a ring's variant in an end list, only the end
    lanes among them), four cells per loop iteration and then the last
    few one at a time (a libm call, one at a time throughout); each cell
    reads its operands before its own store, so a destination that
    shares an operand's slot is safe. The lowering never gives a
    computed class a load's slot, so no instruction writes where a load
    is bound, nor a load slot's cells. When the result is an instruction
    without shift spread, that instruction writes exactly [lanes] cells
    of [dst] from [at] itself, unless they wrap [dst]'s end; any other
    result (a load, a constant, a spread instruction, or a wrapping
    row) is computed in the frame and copied to [dst]. [dst] must not
    be a source a load may be bound to. *)

val body : access:(field:string -> offsets:int list -> 'ctx -> float) -> Sf_ir.Expr.body -> 'ctx -> float
(** One-lane adapter: per call, read each load once through [access],
    then {!exec}. It knows no field's lanes, so every node is its own
    class. Not reentrant. *)

(** {2 Loads}

    Both callers bind load slots alike: the lanes of one dispatch are
    consecutive cells of one innermost-axis row, from multi-index [idx]. *)

type ring = {
  data : float array;
  cap : int;
  span : int;
  mutable newest : int;
  mutable head : int;
}
(** A view of the last [span] elements of a row-major element stream, up
    to element [newest], in a ring [data] of [cap] elements (its length,
    at least [span]): element [e] is at [data.(e mod cap)], and
    [head = newest mod cap] ([-1] before the first element). Reads
    outside the last [span] elements fail an assertion, even where
    [data] still holds them. A stencil unit's streaming input is a view
    of its input channel's ring, whose [span] is the channel's history
    reserve: consuming a run of words advances [newest] and [head]; a
    whole tensor is a ring too ({!resident}). *)

val resident : float array -> ring
(** The whole array, as the stream's last [span = cap] elements. *)

val view : float array -> span:int -> ring
(** An empty view of a stream that will be written into [data] from
    index 0 on, reading its last [span] elements. Raises
    [Invalid_argument] unless [0 <= span <= Array.length data]. *)

type taps
(** The load slots of a program resolved against their sources: for
    each, the program axes it spans (strictly increasing; row-major over
    their extents in [shape]), the run's offsets and width, and the
    boundary condition. *)

val taps :
  program -> shape:int array -> (string -> ring * int array * Sf_ir.Boundary.t) -> taps
(** One tap per load slot, in slot order; [source field] is the field's
    ring, the program axes it spans and its boundary, which must agree
    with the [lane] the program was lowered with. Raises
    [Invalid_argument] on a shifting run with a [Copy] boundary. *)

val load_runs : taps -> int * int
(** The load runs {!fill} has copied into a frame and bound in place
    with these taps, in that order: counts of a deterministic walk that
    host noise cannot move. *)

val fill : ?oob:bool array -> taps -> idx:int array -> lanes:int -> frame -> unit
(** Bind the load slots of the dispatch of [lanes] cells at [idx] to
    their runs: slot [k] from tap [k], cells [0, lanes) plus the run's
    shift spread, cell [c] reading the run's first offsets from lane
    [c]'s cell. A run wholly in bounds that spans the innermost axis
    and does not wrap the ring is read where it lies: the slot is bound
    to the ring's array, and nothing is copied. Every other run is
    copied into the slot's cells: its in-bounds cells with at most two
    [Array.blit]s (split where the run wraps the ring), or one repeated
    element when the tap does not span the innermost axis, and each
    out-of-bounds cell the boundary value (for [Copy], the source's
    element at the lane's own cell). With [oob], every slot is filled
    and [oob.(l)] is set to whether any original load of lane [l] was
    out of bounds: a run's least and greatest lane offsets are both
    loads of the body, so that is whether either end of lane [l]'s
    reads was. Only a shrink stencil's validity reads the flags, so its
    callers pass [oob]; the others skip the flag work and the slots that
    the list {!exec} runs at [idx] does not read (a rolling list reads
    fewer rows). The slots that list reads are the same either way.
    Bound runs are read by {!exec}, so the ring must not change between
    the two. Fails an assertion if a read element, bound or copied, is
    not among the ring's last [span]. *)

val advance : shape:int array -> int array -> int -> int -> unit
(** [advance ~shape idx d inc] adds [inc] to [idx.(d)], carrying into
    outer axes; the outermost axis does not wrap. *)
