open Sf_models
module Iterative = Sf_kernels.Iterative
module Hdiff = Sf_kernels.Hdiff
module Op_count = Sf_analysis.Op_count

let dev = Device.stratix10

let test_device_constants () =
  Alcotest.(check (float 1e-6)) "bytes per cycle" 256. (Device.bytes_per_cycle dev);
  Alcotest.(check (float 1e-4)) "link bytes per cycle" (2. *. 5e9 /. 300e6)
    (Device.link_bytes_per_cycle dev);
  Alcotest.(check bool) "scalar cap is 47% of peak" true
    (Sf_support.Util.float_close ~rel:0.01 (dev.Device.scalar_bw_cap /. dev.Device.peak_bandwidth) 0.474)

let test_resource_scaling () =
  let p1 = Iterative.chain ~shape:[ 64; 64 ] Iterative.Jacobi2d ~length:1 in
  let p4 = Sf_analysis.Vectorize.apply p1 4 in
  let s1 = List.hd p1.Sf_ir.Program.stencils in
  let u1 = Resource.of_unit (Sf_ir.Program.check_exn p1) s1
  and u4 = Resource.of_unit (Sf_ir.Program.check_exn p4) s1 in
  Alcotest.(check int) "DSPs scale with W" (4 * u1.Resource.dsp) u4.Resource.dsp;
  Alcotest.(check bool) "ALMs grow with W" true (u4.Resource.alm > u1.Resource.alm);
  Alcotest.(check bool) "single stage fits easily" true (Resource.fits dev u1)

let test_dtype_resource_scaling () =
  (* Double precision costs ~4x the DSPs and ~2x the datapath logic. *)
  let p32 = Iterative.chain ~shape:[ 64; 64 ] Iterative.Jacobi2d ~length:1 in
  let p64 = { p32 with Sf_ir.Program.dtype = Sf_ir.Dtype.F64 } in
  let s = List.hd p32.Sf_ir.Program.stencils in
  let u32 = Resource.of_unit (Sf_ir.Program.check_exn p32) s
  and u64 = Resource.of_unit (Sf_ir.Program.check_exn p64) s in
  Alcotest.(check int) "4x DSPs" (4 * u32.Resource.dsp) u64.Resource.dsp;
  Alcotest.(check bool) "more ALMs" true (u64.Resource.alm > u32.Resource.alm);
  (* Buffer bytes double too (8 B elements). *)
  Alcotest.(check bool) "more M20Ks" true (u64.Resource.m20k >= u32.Resource.m20k)

let test_max_chain_length () =
  let p = Iterative.chain ~shape:[ 1024; 64; 64 ] Iterative.Jacobi3d ~length:1 in
  let per_stage = Resource.of_unit (Sf_ir.Program.check_exn p) (List.hd p.Sf_ir.Program.stencils) in
  let n = Resource.max_chain_length dev ~per_stage ~fixed:Resource.zero in
  (* Table I's 265 GOp/s at ~300 MHz implies on the order of 100+ chained
     Jacobi 3D stages on one device. *)
  Alcotest.(check bool) (Printf.sprintf "chain length %d in [60, 400]" n) true (n >= 60 && n <= 400);
  (* Vectorizing 8x shrinks the chain by roughly 8x (DSP-bound). *)
  let p8 = Sf_analysis.Vectorize.apply p 8 in
  let per_stage8 = Resource.of_unit (Sf_ir.Program.check_exn p8) (List.hd p8.Sf_ir.Program.stencils) in
  let n8 = Resource.max_chain_length dev ~per_stage:per_stage8 ~fixed:Resource.zero in
  Alcotest.(check bool)
    (Printf.sprintf "W=8 chain %d shrinks vs %d" n8 n)
    true
    (float_of_int n /. float_of_int n8 > 2. && float_of_int n /. float_of_int n8 < 14.)

let test_program_usage_includes_delay_buffers () =
  let p = Fixtures.diamond ~shape:[ 8; 512 ] ~span:4 () in
  let checked = Sf_ir.Program.check_exn p in
  let units_only =
    List.fold_left
      (fun acc s -> Resource.add acc (Resource.of_unit checked s))
      Resource.zero p.Sf_ir.Program.stencils
  in
  let whole = Resource.of_program p in
  Alcotest.(check bool) "program m20k exceeds unit m20k" true
    (whole.Resource.m20k > units_only.Resource.m20k)

let test_memory_model_ramp_and_caps () =
  (* Fig. 16: linear ramp, scalar saturation at 36.4 GB/s, vectorized at
     58.3 GB/s, 0.94x droop near saturation. *)
  let eff n vectorized =
    Memory_model.effective_bandwidth dev ~operands_per_cycle:n ~element_bytes:4 ~vectorized
  in
  Alcotest.(check (float 1.)) "small requests served fully" (4. *. 4. *. 300e6) (eff 4 false);
  Alcotest.(check (float 1e6)) "scalar cap" 36.4e9 (eff 48 false);
  Alcotest.(check (float 1e6)) "vector cap" 58.3e9 (eff 64 true);
  Alcotest.(check bool) "monotone" true (eff 8 false <= eff 16 false);
  (* 12 vectorized access points x 4 lanes = 48 operands/cycle: measured
     0.94x droop. *)
  let requested =
    Memory_model.requested_bandwidth dev ~operands_per_cycle:48 ~element_bytes:4
  in
  let e = eff 48 true /. requested in
  Alcotest.(check bool) (Printf.sprintf "droop %.3f in [0.9, 1.0)" e) true (e >= 0.9 && e < 1.0)

let test_loadstore_table2 () =
  (* Table II: modelled runtimes on the 128x128x80 domain. *)
  let p = Hdiff.program () in
  let ai = Op_count.ai_ops_per_byte p in
  let flops = Op_count.total_flops p in
  let check_arch arch expected_us tolerance =
    let us = Loadstore.runtime arch ~ai_ops_per_byte:ai ~total_flops:flops *. 1e6 in
    Alcotest.(check bool)
      (Printf.sprintf "%s runtime %.0f us vs paper %.0f us" arch.Loadstore.name us expected_us)
      true
      (Float.abs (us -. expected_us) /. expected_us < tolerance)
  in
  check_arch Loadstore.xeon_12c 5270. 0.15;
  check_arch Loadstore.p100 810. 0.15;
  check_arch Loadstore.v100 201. 0.15;
  (* Ordering: V100 > P100 > Xeon. *)
  let perf a = Loadstore.performance a ~ai_ops_per_byte:ai in
  Alcotest.(check bool) "v100 fastest" true
    (perf Loadstore.v100 > perf Loadstore.p100 && perf Loadstore.p100 > perf Loadstore.xeon_12c)

let test_silicon_efficiency () =
  (* Sec. IX-C: 849 GOp/s on 815 mm2 = 1.04 GOp/s/mm2 for the V100. *)
  Alcotest.(check (float 0.01)) "v100" 1.04
    (Silicon.efficiency ~performance_ops_per_s:849e9 ~die_area_mm2:815.);
  Alcotest.(check (float 0.01)) "p100" 0.34
    (Silicon.efficiency ~performance_ops_per_s:210e9 ~die_area_mm2:610.)

let test_literature_entries () =
  Alcotest.(check int) "six comparison rows" 6 (List.length Literature.all);
  Alcotest.(check (float 0.)) "zohouri 2d" 913. Literature.zohouri_diffusion2d.Literature.performance_gop_s

let test_hdiff_matches_paper_profile () =
  let p = Hdiff.program () in
  let c = Op_count.of_program p in
  let profile = c.Op_count.profile in
  Alcotest.(check int) "2 sqrt" 2 profile.Sf_ir.Expr.sqrts;
  Alcotest.(check int) "2 min" 2 profile.Sf_ir.Expr.mins;
  Alcotest.(check int) "2 max" 2 profile.Sf_ir.Expr.maxs;
  Alcotest.(check int) "20 data-dependent branches" 20 profile.Sf_ir.Expr.data_branches;
  Alcotest.(check int) "130 flops per cell (87+41+2 in the paper)" 130 c.Op_count.flops_per_cell;
  (* adds/muls land near the paper's 87/41 split. *)
  Alcotest.(check bool) "adds close to 87" true (abs (profile.Sf_ir.Expr.adds - 87) <= 10);
  Alcotest.(check bool) "muls close to 41" true (abs (profile.Sf_ir.Expr.muls - 41) <= 10);
  (* Reads 5*IJK + 5*J, writes 4*IJK (Sec. IX-A). *)
  let cells = Sf_ir.Program.cells p in
  Alcotest.(check int) "reads" ((5 * cells) + (5 * 128)) c.Op_count.read_elements;
  Alcotest.(check int) "writes" (4 * cells) c.Op_count.written_elements;
  (* Eq. 2: AI within 1% of 130/9 ops/operand. *)
  let ai = Op_count.ai_ops_per_operand p in
  Alcotest.(check bool)
    (Printf.sprintf "AI %.4f ~ %.4f" ai (130. /. 9.))
    true
    (Float.abs (ai -. (130. /. 9.)) /. (130. /. 9.) < 0.01);
  (* ~9 streaming operands per cycle at W=1 (Sec. IX-B). *)
  Alcotest.(check int) "9 operands per cycle" 9 (Op_count.streaming_operands_per_cycle p)

let test_hdiff_roofline () =
  (* Eq. 3: 210.5 GOp/s at 58.3 GB/s; Eq. 4: 254 GB/s to saturate
     917 GOp/s of compute. *)
  let p = Hdiff.program () in
  let ai = Op_count.ai_ops_per_byte p in
  let roof = Sf_analysis.Roofline.attainable_ops_per_s ~ai_ops_per_byte:ai
      ~bandwidth_bytes_per_s:dev.Device.vector_bw_cap
  in
  Alcotest.(check bool)
    (Printf.sprintf "roof %.1f GOp/s ~ 210.5" (roof /. 1e9))
    true
    (Float.abs ((roof /. 1e9) -. 210.5) < 5.);
  let needed =
    Sf_analysis.Roofline.bandwidth_to_saturate ~compute_ops_per_s:917.1e9 ~ai_ops_per_byte:ai
  in
  Alcotest.(check bool)
    (Printf.sprintf "needed %.1f GB/s ~ 254" (needed /. 1e9))
    true
    (Float.abs ((needed /. 1e9) -. 254.) < 8.)

let suite =
  [
    Alcotest.test_case "device constants" `Quick test_device_constants;
    Alcotest.test_case "resource estimates scale with W" `Quick test_resource_scaling;
    Alcotest.test_case "dtype-aware resource scaling" `Quick test_dtype_resource_scaling;
    Alcotest.test_case "chain length solver (table 1 regime)" `Quick test_max_chain_length;
    Alcotest.test_case "delay buffers cost M20Ks" `Quick test_program_usage_includes_delay_buffers;
    Alcotest.test_case "memory model reproduces fig 16" `Quick test_memory_model_ramp_and_caps;
    Alcotest.test_case "load/store baselines reproduce table 2" `Quick test_loadstore_table2;
    Alcotest.test_case "silicon efficiency (sec 9C)" `Quick test_silicon_efficiency;
    Alcotest.test_case "literature comparison rows" `Quick test_literature_entries;
    Alcotest.test_case "hdiff matches the paper's profile (sec 9A)" `Quick
      test_hdiff_matches_paper_profile;
    Alcotest.test_case "hdiff roofline equations" `Quick test_hdiff_roofline;
  ]
