(** Sequential reference interpreter (paper, Sec. VI-C).

    Stencil evaluations execute one at a time in topological order — no
    fusion or inter-stencil parallelism — over real arrays. This is the
    oracle against which the spatial simulator's streamed results are
    validated, and doubles as a measured CPU baseline.

    Boundary semantics match the DSL: per-dimension out-of-bounds reads
    are replaced according to the input's boundary condition; a stencil
    with [shrink] marks every output cell whose computation touched an
    out-of-bounds value as invalid. Comparisons yield 1.0 / 0.0 and any
    non-zero value is true, matching the generated hardware's predicated
    float pipeline. *)

type result = {
  tensor : Tensor.t;
  valid : bool array;
      (** Per-cell validity (row-major); all-true unless the producing
          stencil declares [shrink]. *)
}

exception Runtime_error of string

val eval_expr :
  lookup:(field:string -> offsets:int list -> float) ->
  env:(string -> float option) ->
  Sf_ir.Expr.t ->
  float
(** Evaluate one expression given an access oracle and a let-binding
    environment. Exposed for testing and for the simulator's compute
    stage, which shares these semantics. *)

val run : Sf_ir.Program.t -> inputs:(string * Tensor.t) list -> (string * result) list
(** Execute every stencil in topological order and return the results of
    the program's declared outputs, in that order. A stage that is not an
    output is freed as soon as its last consumer has run, and a later
    stage reuses its data and validity arrays, so memory follows the
    DAG's live width rather than its length; to keep every stage, declare
    every stencil an output. Raises {!Runtime_error} on missing or
    mis-shaped inputs. *)

type plan = private {
  checked : Sf_ir.Program.checked;
  stages : (Sf_ir.Stencil.t * Compile.program) list;  (** Lowered bodies, in dependency order. *)
  lowerings : int;  (** Distinct lowerings: {!Compile.lower} calls made for [stages]. *)
}
(** A checked program with every body lowered once. Nothing changes it
    afterwards, so the oracle ({!prepare}) and the simulator's stencil
    units share one plan across domains, each with frames of its own. *)

val plan : Sf_ir.Program.checked -> plan
(** Each body is lowered with the checked facts ({!Compile.lane}): a
    field's loads shift along the innermost axis when the field spans
    it and the stencil's boundary for it is [Constant]; a [Copy]
    boundary keeps them [Fixed], and a field that does not span the
    axis is [Uniform]. A program of two or three axes classifies the
    loads along its row axis (the second-innermost) the same way, with
    the innermost extent as the row length, so a body that reads a
    computed value at several rows keeps it in a ring
    ({!Compile.lower}); each caller then runs a stage's dispatches in
    row-major order on one frame.

    Stages share a lowering when their bodies are equal once each
    one's fields are numbered in the order one walk of the body (its
    lets, then the result) first meets them, and each field has the same two
    classes: a chain of one iterative stencil lowers one body, however
    long. Let names, constants (by their bits) and offsets are part of
    the body. Each stage gets the shared program {!Compile.rebind}ed to
    its own fields, equal to lowering its own body. The plan reads the
    facts of the given check and checks nothing again. *)

val prepare :
  ?load_runs:(int * int -> unit) ->
  plan ->
  inputs:(string * Tensor.t) list ->
  unit ->
  (string * result) list
(** {!run} in two steps: [prepare] checks the inputs (raising as {!run}
    does); the returned function runs the row loops, one dispatch per
    row, each computed straight into its row of the output tensor, on
    one frame per distinct lowering. It shares nothing mutable with the
    caller, may run on another domain, and evaluates afresh on each
    call. After each stage it passes [load_runs] the stage's
    {!Compile.load_runs}: the load runs copied into the frame and bound
    in place.
    [run p ~inputs = prepare (plan (Sf_ir.Program.check_exn p)) ~inputs ()]. *)

val random_inputs : ?seed:int -> Sf_ir.Program.t -> (string * Tensor.t) list
(** Deterministic pseudo-random input data in [-1, 1] for every declared
    input field — convenient for tests and validation runs. *)

val input_extent : Sf_ir.Program.t -> Sf_ir.Field.t -> int list
(** The tensor extent a given input field must have. *)
