let attainable_ops_per_s ~ai_ops_per_byte ~bandwidth_bytes_per_s =
  ai_ops_per_byte *. bandwidth_bytes_per_s

let bandwidth_to_saturate ~compute_ops_per_s ~ai_ops_per_byte =
  if ai_ops_per_byte <= 0. then invalid_arg "Roofline.bandwidth_to_saturate: non-positive AI";
  compute_ops_per_s /. ai_ops_per_byte

let fraction_of_roof ~measured_ops_per_s ~ai_ops_per_byte ~bandwidth_bytes_per_s =
  let roof = attainable_ops_per_s ~ai_ops_per_byte ~bandwidth_bytes_per_s in
  if roof <= 0. then 0. else measured_ops_per_s /. roof
