let requested_bandwidth (d : Device.t) ~operands_per_cycle ~element_bytes =
  float_of_int (operands_per_cycle * element_bytes) *. d.Device.frequency_hz

let cap (d : Device.t) ~vectorized =
  if vectorized then d.Device.vector_bw_cap else d.Device.scalar_bw_cap

(* Saturation onset: beyond ~80% of the crossbar ceiling, arbitration
   overhead costs a few percent (the 0.94x droop the paper measures). *)
let droop_threshold = 0.8
let droop_factor = 0.94

let effective_bandwidth d ~operands_per_cycle ~element_bytes ~vectorized =
  let requested = requested_bandwidth d ~operands_per_cycle ~element_bytes in
  let ceiling = cap d ~vectorized in
  if requested <= droop_threshold *. ceiling then requested
  else Float.min (requested *. droop_factor) ceiling

let bytes_per_cycle_cap d ~vectorized = cap d ~vectorized /. d.Device.frequency_hz
