open Sf_ir
module Device = Sf_models.Device
module Resource = Sf_models.Resource
module Memory_model = Sf_models.Memory_model

type evaluation = {
  vector_width : int;
  modeled_ops_per_s : float;
  bandwidth_bound : bool;
  fits : bool;
  network_ok : bool;
}

let evaluate ?(devices = 1) ~device (p : Program.t) w =
  let p = Program.with_vector_width p w in
  let analysis = Sf_analysis.Delay_buffer.analyze p in
  let counts = Sf_analysis.Op_count.of_program p in
  let flops_per_cycle = float_of_int (counts.Sf_analysis.Op_count.flops_per_cell * w) in
  let demand_bytes =
    float_of_int
      (Sf_analysis.Op_count.streaming_operands_per_cycle p * Dtype.size_bytes p.Program.dtype)
  in
  let cap_bytes = Memory_model.bytes_per_cycle_cap device ~vectorized:(w > 1) in
  let bandwidth_bound = demand_bytes > cap_bytes in
  let throughput = if bandwidth_bound then cap_bytes /. demand_bytes else 1. in
  let usage = Resource.of_analysis analysis in
  (* Budget scales with the device count for pre-partitioned estimates. *)
  let budget_device =
    {
      device with
      Device.alm = device.Device.alm * devices;
      ff = device.Device.ff * devices;
      m20k = device.Device.m20k * devices;
      dsp = device.Device.dsp * devices;
    }
  in
  let fits = Resource.fits budget_device usage in
  let network_ok =
    devices = 1
    ||
    let topo = Sf_smi.Smi.chain ~devices ~links_per_hop:device.Device.links_per_hop in
    w
    <= Sf_smi.Smi.max_vector_width topo device
         ~element_bytes:(Dtype.size_bytes p.Program.dtype) ~streams_per_hop:1
  in
  let modeled =
    if fits && network_ok then
      flops_per_cycle *. throughput *. device.Device.frequency_hz
    else 0.
  in
  { vector_width = w; modeled_ops_per_s = modeled; bandwidth_bound; fits; network_ok }

let choose ?devices ?(max_width = 16) ~device p =
  let sweep =
    List.map (evaluate ?devices ~device p) (Sf_analysis.Vectorize.legal_widths p ~max:max_width)
  in
  let feasible = List.filter (fun e -> e.fits && e.network_ok) sweep in
  match feasible with
  | [] -> invalid_arg "Autotune.choose: no vector width fits the device"
  | first :: rest ->
      let best =
        List.fold_left
          (fun acc e -> if e.modeled_ops_per_s > acc.modeled_ops_per_s then e else acc)
          first rest
      in
      (best, sweep)
