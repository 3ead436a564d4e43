open Sf_ir

let analyzed_cycles (p : Program.t) (analysis : Delay_buffer.t) =
  let n = Sf_support.Util.ceil_div (Program.cells p) p.Program.vector_width in
  analysis.Delay_buffer.latency_cycles + n

let expected_cycles ?config p = analyzed_cycles p (Delay_buffer.analyze ?config p)

let analyzed_ops_per_s ~frequency_hz p analysis =
  Op_count.total_flops p /. (float_of_int (analyzed_cycles p analysis) /. frequency_hz)

let initialization_fraction ?config p =
  let analysis = Delay_buffer.analyze ?config p in
  float_of_int analysis.Delay_buffer.latency_cycles /. float_of_int (analyzed_cycles p analysis)
