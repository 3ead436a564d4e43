(** One pipeline request: the single description from which every entry
    point builds and runs the Sec. VII pipeline.

    The one-shot CLI commands build a {!t} and {!run} it in-process;
    [--remote] sends {!to_json} of that same value to a [serve] child,
    whose workers decode it with {!of_json} and {!run} it over the shared
    cache; the {!Stencilflow} facade wraps {!run}. {!passes} is the only
    place a pass list is assembled, so the same request yields the same
    passes, cache keys and result on every path.

    Engine settings that are not part of the request (telemetry,
    tracing, fault injection) enter as the base [config] of {!run}. *)

type verb = [ `Analyze | `Simulate | `Codegen ]

val verb_name : verb -> string
val verb_of_name : string -> verb option

type source =
  | File of string  (** [program_file]: a path, keyed on the file's bytes. *)
  | Inline of Sf_support.Json.t
      (** [program]: an inline description, keyed on its minified text. *)
  | Program of Sf_ir.Program.t  (** An already-constructed program. *)

type options = {
  width : int option;  (** Vectorization width override. *)
  fuse : bool;  (** Aggressive stencil fusion (Sec. V-B). *)
  optimize : bool;  (** Constant folding + CSE, after fusion. *)
  devices : int option;  (** [simulate]: contiguous mapping onto N devices. *)
  seed : int;  (** [simulate]: seed of the random input data. *)
  validate : bool;  (** [simulate]: validate against the reference. *)
  max_cycles : int option;  (** [simulate]: cycle budget ([SF0703]). *)
  backend : [ `Opencl | `Vitis ];  (** [codegen]: target backend. *)
}

val default_options : options
(** The one default table of every entry point: no width override, no
    fusion, no optimiser, greedy partitioning, seed 42, validation on,
    no cycle budget, OpenCL. *)

type t = { verb : verb; source : source; options : options }

val make : ?options:options -> verb -> source -> t

val of_json : Sf_support.Json.t -> (t, Sf_support.Diag.t list) result
(** Decode a serve request object: ["verb"], ["program"] (inline) or
    ["program_file"] (path), and an optional ["options"] object whose
    absent fields (["width"], ["fuse"], ["optimize"], ["devices"],
    ["seed"], ["validate"], ["max_cycles"], ["backend"]) take
    {!default_options}. Unknown verbs and backends and a missing program
    are [SF0203]. *)

val to_json : t -> Sf_support.Json.t
(** The object {!of_json} decodes back to the same request, with every
    option written out; a {!Program} source is sent inline. *)

val passes : t -> Pass_manager.pass list
(** The frontend (load, [vectorize-W], fusion, then [fold-cse], so the
    optimiser sees the fused bodies) followed by the verb's passes:
    [delay-buffers] for [analyze]; partitioning, the runtime model and
    simulation for [simulate]; partitioning and the backend for
    [codegen]. *)

val run :
  ?config:Sf_sim.Engine.config ->
  ?device:Sf_models.Device.t ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  ?cache:Cache.t ->
  ?hooks:Pass_manager.hooks ->
  ?should_stop:(unit -> bool) ->
  ?deadline:float ->
  t ->
  (Ctx.t * Pass_manager.trace, Sf_support.Diag.t list * Pass_manager.trace) result
(** Execute {!passes} with {!Pass_manager.run} from a fresh context whose
    engine configuration is [config] (default
    {!Sf_sim.Engine.Config.default}) with the request's [max_cycles], when
    set, as its cycle budget. [inputs] replaces the seeded random
    simulation inputs. *)

val frontend : t ->(Ctx.t, Sf_support.Diag.t list) result
(** Execute only the frontend passes — how the commands that render a
    program instead of running a verb obtain it. *)

val result_json : t -> Ctx.t -> Sf_support.Json.t
(** The verb's payload for a finished run: a serve response's
    ["result"]. *)
