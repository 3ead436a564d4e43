(** Former entry points of the domain-parallel engine, kept for the
    benchmark in [bench/flow], which still calls these two. Both are the
    sequential {!Engine} functions: every placement runs on the one
    scheduler. They go with the next change to that benchmark. *)

val run_exn :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  Engine.outcome
(** {!Engine.run_exn}. *)

val run_and_validate :
  ?config:Engine.config ->
  ?placement:(string -> int) ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  Sf_ir.Program.t ->
  (Engine.stats, Sf_support.Diag.t) result
(** {!Engine.run_and_validate}. *)
