(** The typed artifact store threaded through {!Pass_manager} passes.

    Each pipeline stage reads the artifacts it needs and records the ones
    it produces: the frontend fills {!t.program}, transformations replace
    it (recording fusion/optimiser reports), analyses fill {!t.analysis},
    mapping fills {!t.partition}, and backends fill the generated-code
    slots. Warnings accumulate in {!t.diags} (deduplicated); hard errors
    are returned by the pass itself and abort the pipeline. *)

type digest
(** The content digest of one slot value, computed on first use and then
    shared by every context and cache entry that holds the value. *)

type kept
(** A digest kept for a slot together with the value it digests. *)

type t = {
  device : Sf_models.Device.t;  (** Resource/frequency model for mapping. *)
  sim_config : Sf_sim.Engine.config;
  inputs : (string * Sf_reference.Tensor.t) list option;
      (** Simulation inputs (default: random). *)
  source_file : string option;  (** Where {!t.program} was loaded from. *)
  program : Sf_ir.Program.checked option;  (** The current version's check. *)
  fusion : Sf_sdfg.Fusion.report option;
  opt : Sf_sdfg.Opt.report option;
      (** Counters from the last expression-optimisation pass (fold-cse). *)
  analysis : Sf_analysis.Delay_buffer.t option;
  partition : Sf_mapping.Partition.t option;
  kernels : Sf_codegen.Opencl.artifact list;
  host_source : string option;
  vitis_source : string option;
  simulation : (Sf_sim.Engine.stats, Sf_support.Diag.t) result option;
  performance_model : float option;  (** Modelled ops/s at the device clock. *)
  diags : Sf_support.Diag.t list;
      (** Accumulated non-fatal diagnostics, oldest first. *)
  digests : kept list;
      (** At most one kept digest per slot (see {!kept_fingerprint}). *)
}

val create :
  ?device:Sf_models.Device.t ->
  ?sim_config:Sf_sim.Engine.config ->
  ?inputs:(string * Sf_reference.Tensor.t) list ->
  unit ->
  t
(** An empty context (default device: Stratix 10). *)

val with_program : t -> Sf_ir.Program.checked -> t
(** Install a (new version of the) program's check, invalidating every
    artifact derived from the previous version (optimizer report, analysis,
    partition, generated code, simulation, performance model). The
    fusion report is kept: it documents how the current program was
    produced, and fusing passes re-install it right after the swap. *)

val the_program : t -> (Sf_ir.Program.checked, Sf_support.Diag.t list) result
(** The current program's check, or an [SF0901] diagnostic when no
    frontend pass has run yet. *)

val the_analysis : t -> (Sf_analysis.Delay_buffer.t, Sf_support.Diag.t list) result
(** The current delay-buffer analysis, or an [SF0901] diagnostic when the
    [delay-buffers] pass has not run on the current program. *)

val add_diag : t -> Sf_support.Diag.t -> t
(** Append a diagnostic unless an identical one (severity, code, message)
    is already recorded. *)

val counters : t -> (string * int) list
(** Artifact-size counters for the artifacts present: [stencils] and
    [edges] of the program, [opt-ops-before]/[opt-ops-after]/[opt-shared]/
    [opt-flops-saved] of the expression-optimisation report, [delay-words]
    of the analysis, [devices] of the partition, [code-bytes] of all
    generated sources. Used by {!Pass_manager} to report what each pass
    changed. *)

val code_bytes : t -> int
(** Total size of the generated sources (the [code-bytes] counter). *)

val source_files : t -> (string * string) list
(** The generated sources as [(filename, contents)] pairs: host code,
    Vitis code, then the kernels — the tail of {!artifact_files}. *)

val artifact_files : t -> (string * string) list
(** The current artifacts as [(filename, contents)] pairs — the program
    as JSON, textual renderings of reports/analysis/partition/simulation,
    and the generated sources verbatim. Used by the [--dump-ir] hook. *)

(** {2 Typed artifact slots}

    A slot is a first-class view of one artifact of the context: how to
    read it, install it, erase it, and digest its content. Passes declare
    the slots they read and write ({!Pass_manager.pass}); the
    content-addressed cache ({!Cache}) keys a pass execution on the
    digests of its read slots and replays its write slots on a hit.

    The environment slots ([device], [sim-config], [sim-latency],
    [inputs]) always [get] to [Some] and have a no-op [erase]: they are
    request parameters, listed only in a pass's reads. [sim-latency] is a
    narrowed view of [sim-config] so latency-driven analyses are not
    invalidated by unrelated simulation knobs (seed, cycle limits). *)

type 'a slot = {
  slot_name : string;  (** Stable identifier, also the on-disk binding key. *)
  get : t -> 'a option;
  put : t -> 'a -> t;
      (** Install a value; for [program] this is {!with_program}, so
          installing also invalidates derived artifacts. *)
  erase : t -> t;
  fp : 'a -> Sf_support.Fingerprint.t;  (** Content digest of a value. *)
}

type packed = P : 'a slot -> packed

val program_slot : Sf_ir.Program.checked slot
val source_file_slot : string slot
val fusion_slot : Sf_sdfg.Fusion.report slot
val opt_slot : Sf_sdfg.Opt.report slot
val analysis_slot : Sf_analysis.Delay_buffer.t slot
val partition_slot : Sf_mapping.Partition.t slot
val kernels_slot : Sf_codegen.Opencl.artifact list slot
val host_source_slot : string slot
val vitis_source_slot : string slot
val simulation_slot : (Sf_sim.Engine.stats, Sf_support.Diag.t) result slot
val performance_model_slot : float slot
val device_slot : Sf_models.Device.t slot
val sim_config_slot : Sf_sim.Engine.config slot
val sim_latency_slot : Sf_analysis.Latency.config slot
val inputs_slot : (string * Sf_reference.Tensor.t) list slot

val all_slots : packed list
val slot_name : packed -> string
val find_slot : string -> packed option
(** Look a slot up by {!slot_name} — how the on-disk store maps
    serialized bindings back to typed slots. *)

val slot_fingerprint : t -> packed -> Sf_support.Fingerprint.t option
(** Digest of the slot's current content, recomputed from the value, or
    [None] when absent. The reference that {!kept_fingerprint} must
    agree with. *)

(** {2 Kept digests}

    A slot value's digest is computed once and travels with the value:
    the context keeps it next to the value, keyed by slot and by the
    value's physical identity, and cache entries carry the digests of
    the values they captured. {!Pass_manager.run} keeps digests for a
    pass's declared writes and for replayed entries; {!create} keeps
    them for the environment slots. A value installed without a kept
    digest — written by a pass that did not declare the write — fails
    the identity check and is digested afresh on every read. *)

val fresh_digest : unit -> digest
(** An empty digest, filled on first use. *)

val keep : t -> 'a slot -> 'a -> digest -> t
(** Record [digest] as the digest of [value] in the slot, replacing the
    slot's previous kept digest. *)

val digest_of : t -> packed -> digest option
(** The kept digest of the slot's current value, a fresh one when none
    is kept for that value, or [None] when the slot is empty. *)

val keep_written : t -> packed list -> t
(** Keep a digest for the current value of each listed slot: the
    already kept one when it still matches, else a fresh one. *)

val kept_fingerprint : t -> packed -> Sf_support.Fingerprint.t option
(** Equal to {!slot_fingerprint}, but read through the kept digest of
    the current value (computing and storing it on first use); a value
    with no kept digest is digested afresh. *)
