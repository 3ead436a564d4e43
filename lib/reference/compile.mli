(** The one evaluator for stencil bodies: a flat, lane-batched program.

    {!lower} turns the hash-consed DAG of a body ({!Sf_ir.Dag}) into a
    straight-line program once: each distinct [(field, offsets)] access is
    a load slot the caller fills, constants are slots filled when the
    frame is made, and each other node is one instruction in depth-first
    post-order, whose value takes the slot of a dead one where it can.
    {!exec} runs it over [lanes] cells held in one unboxed [float array]
    (slot [s], lane [l] at [s * stride + l]), dispatching each instruction
    once and then looping over the lanes, four per iteration, without
    allocating: one control step drives W lanes, as in the paper's
    stencil units (Sec. III-A, IV-C). The reference interpreter runs a whole innermost-axis row per
    dispatch; a simulated stencil unit runs the words of one row segment,
    up to a chunk of words at a time when the engine fast-forwards.

    Semantics are bit-identical to {!Interp.eval_expr}: comparisons yield
    1.0 / 0.0, any non-zero value is true, [&&] and [||] do not
    short-circuit, both select branches are computed, and bindings the
    result never reads are computed too, so their loads still feed the
    validity mask. *)

type program

val lower : Sf_ir.Expr.body -> program
(** Raises [Invalid_argument] on unbound or forward variable references
    and on calls with the wrong arity. *)

val loads : program -> (string * int list) array
(** The distinct accesses; load [k] lives in slot [k]. *)

val result_slot : program -> int

val frame : program -> lanes:int -> float array
(** A fresh frame for up to [lanes] cells with the constant slots
    filled; slot stride [lanes], as many slots as are live at once. *)

val exec : program -> lanes:int -> float array -> unit
(** Run every instruction over the first [lanes] cells of a frame whose
    load slots are filled; the slot stride is the frame's, which must be
    at least [lanes]. Lane [l]'s result is at [result_slot p * stride + l].
    Each instruction runs four lanes per loop iteration, then the last
    [lanes mod 4] one at a time (a libm call, one at a time throughout).
    It writes lanes 0 to [lanes - 1] of a slot and no other cell, and each
    lane reads its operands before its own store, so a destination that
    shares an operand's slot is safe. It overwrites dead load slots:
    refill them ({!fill}) before each call. *)

val body : access:(field:string -> offsets:int list -> 'ctx -> float) -> Sf_ir.Expr.body -> 'ctx -> float
(** One-lane adapter: per call, read each load once through [access],
    then {!exec}. Not reentrant. *)

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
    access offsets and the boundary condition. *)

val tap :
  ring -> shape:int array -> axes:int array -> offsets:int array -> boundary:Sf_ir.Boundary.t -> tap

val fill :
  tap array -> idx:int array -> lanes:int -> stride:int -> float array -> oob:bool array -> unit
(** Fill lanes [0, lanes) of each load slot [k], at [k * stride], from
    [taps.(k)]. The in-bounds lanes of a slot are one run of the ring,
    copied with at most two [Array.blit]s (split where the run wraps the
    ring), or one repeated element when the tap does not span the
    innermost axis. A lane whose access is out of bounds in any axis
    takes the boundary value (for [Copy], the source's element at the
    lane's own cell); [oob.(l)] is set to whether any load of lane [l]
    was. Fails an assertion if a read element is not in the ring. *)

val advance : shape:int array -> int array -> int -> int -> unit
(** [advance ~shape idx d inc] adds [inc] to [idx.(d)], carrying into
    outer axes; the outermost axis does not wrap. *)
