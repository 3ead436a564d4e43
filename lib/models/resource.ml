open Sf_ir

type usage = { alm : int; ff : int; m20k : int; dsp : int }

let zero = { alm = 0; ff = 0; m20k = 0; dsp = 0 }

let add a b =
  { alm = a.alm + b.alm; ff = a.ff + b.ff; m20k = a.m20k + b.m20k; dsp = a.dsp + b.dsp }

let scale k u = { alm = k * u.alm; ff = k * u.ff; m20k = k * u.m20k; dsp = k * u.dsp }

(* Calibration constants (fitted to Table I, see DESIGN.md):
   - every FP add/mul maps to one hardened DSP per vector lane; div and
     sqrt consume a DSP cluster;
   - ALMs: a per-unit base for stream control plus a per-lane cost for
     datapath glue, predication and the boundary muxes;
   - flip-flops track ALMs (pipelining registers);
   - M20Ks hold the internal buffers (2560 B each), with a small fixed
     cost per buffered field for addressing. *)
let alm_base = 4000
let alm_per_lane = 600
let alm_per_op = 60
let alm_per_cmp = 90
let ff_per_alm = 2.3
let dsp_div_cost = 4
let dsp_sqrt_cost = 4
let m20k_per_buffered_field = 2

(* Precision factor: double-precision floating point costs ~4 hardened
   DSPs per add/mul on Stratix 10 (vs 1 for fp32) and roughly twice the
   soft-logic datapath width. *)
let dsp_dtype_factor = function
  | Dtype.F64 -> 4
  | Dtype.F32 | Dtype.I32 | Dtype.I64 -> 1

let alm_dtype_factor = function Dtype.F64 | Dtype.I64 -> 2 | Dtype.F32 | Dtype.I32 -> 1

(* One unit from its body's accesses ({!Program.Checked.accesses}). *)
let stencil_usage (p : Program.t) (s : Stencil.t) accesses =
  let w = p.Program.vector_width in
  (* Work profile, not tree profile: codegen emits every shared DAG node
     as a single local temporary, so the pipeline instantiates one ALU
     per distinct node — shared values are computed once and fanned out,
     and the resource estimate must not bill them per occurrence. *)
  let profile = Stencil.work_profile s in
  let flop_ops = profile.Expr.adds + profile.Expr.muls in
  let cheap_ops =
    profile.Expr.mins + profile.Expr.maxs + profile.Expr.compares + profile.Expr.data_branches
    + profile.Expr.const_branches + profile.Expr.other_calls
  in
  let dsp =
    dsp_dtype_factor p.Program.dtype * w
    * (flop_ops + (dsp_div_cost * profile.Expr.divs) + (dsp_sqrt_cost * profile.Expr.sqrts))
  in
  let alm =
    alm_base
    + (alm_dtype_factor p.Program.dtype * w
      * (alm_per_lane + (alm_per_op * (flop_ops + profile.Expr.divs + profile.Expr.sqrts))
        + (alm_per_cmp * cheap_ops)))
  in
  let buffers = Sf_analysis.Internal_buffer.of_accesses p accesses in
  let buffer_bytes =
    List.fold_left
      (fun acc (b : Sf_analysis.Internal_buffer.t) ->
        acc + (b.size_elements * Dtype.size_bytes p.Program.dtype))
      0 buffers
  in
  let buffered_fields =
    List.length (List.filter (fun (b : Sf_analysis.Internal_buffer.t) -> b.size_elements > 0) buffers)
  in
  let m20k =
    Sf_support.Util.ceil_div buffer_bytes Device.m20k_bytes
    + (m20k_per_buffered_field * buffered_fields)
  in
  { alm; ff = int_of_float (ff_per_alm *. float_of_int alm) + (50 * w); m20k; dsp }

let of_unit checked (s : Stencil.t) =
  stencil_usage (Program.Checked.program checked) s (Program.Checked.accesses checked s.Stencil.name)

let memory_interface_usage (p : Program.t) =
  (* Prefetchers, writers and the memory ring: the paper's bandwidth study
     shows routing pressure growing with access points (Sec. VIII-D). *)
  let w = p.Program.vector_width in
  let full_rank = Program.rank p in
  let streams =
    List.length (List.filter (fun f -> Field.rank f = full_rank) p.Program.inputs)
    + List.length p.Program.outputs
  in
  { alm = streams * (800 + (120 * w)); ff = streams * (1800 + (250 * w)); m20k = streams * 4; dsp = 0 }

let of_analysis analysis =
  let checked = Sf_analysis.Delay_buffer.checked analysis in
  let p = Program.Checked.program checked in
  let units = List.fold_left (fun acc s -> add acc (of_unit checked s)) zero p.Program.stencils in
  let delay_bytes =
    Sf_analysis.Delay_buffer.total_delay_buffer_words analysis
    * p.Program.vector_width
    * Dtype.size_bytes p.Program.dtype
  in
  let delay_m20k = Sf_support.Util.ceil_div delay_bytes Device.m20k_bytes in
  add units (add (memory_interface_usage p) { zero with m20k = delay_m20k })

let utilization (d : Device.t) u =
  ( float_of_int u.alm /. float_of_int d.Device.alm,
    float_of_int u.ff /. float_of_int d.Device.ff,
    float_of_int u.m20k /. float_of_int d.Device.m20k,
    float_of_int u.dsp /. float_of_int d.Device.dsp )

let fits ?(ceiling = 0.85) d u =
  let a, f, m, s = utilization d u in
  a <= ceiling && f <= ceiling && m <= ceiling && s <= ceiling

let max_chain_length ?(ceiling = 0.85) d ~per_stage ~fixed =
  let rec go n = if fits ~ceiling d (add fixed (scale (n + 1) per_stage)) then go (n + 1) else n in
  go 0

let pp fmt u =
  Format.fprintf fmt "ALM %d, FF %d, M20K %d, DSP %d" u.alm u.ff u.m20k u.dsp
