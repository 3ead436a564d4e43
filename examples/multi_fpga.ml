(* Multi-device mapping (Secs. III-B, VIII-C): a Jacobi chain too long
   for one device is partitioned over a chain of FPGAs; crossing edges
   become network streams, and the whole system is simulated with link
   bandwidth and latency, then validated against the reference.

   Run with: dune exec examples/multi_fpga.exe *)
open Stencilflow

let () =
  let device = Device.stratix10 in
  (* A 40-stage Jacobi 2D chain on a small domain (so simulation stays
     fast); pretend the device only fits ~8 stages by lowering the
     resource ceiling. *)
  let program = Iterative.chain ~shape:[ 32; 64 ] Iterative.Jacobi2d ~length:40 in
  let partition =
    match Partition.greedy ~ceiling:0.06 ~device (Program.check_exn program) with
    | Ok pt -> pt
    | Error m -> failwith m.Diag.message
  in
  Format.printf "%a@." Partition.pp partition;
  List.iteri
    (fun d usage ->
      let alm, _, m20k, dsp = Resource.utilization device usage in
      Format.printf "device %d: ALM %.2f%%, M20K %.2f%%, DSP %.2f%%@." d (100. *. alm)
        (100. *. m20k) (100. *. dsp))
    partition.Partition.per_device_usage;
  Format.printf "inputs replicated to: %s@."
    (Util.string_concat_map "; "
       (fun (f, devs) ->
         Printf.sprintf "%s -> {%s}" f (Util.string_concat_map "," string_of_int devs))
       partition.Partition.replicated_inputs);

  (* Network feasibility at increasing vector widths (the SMI bound of
     Sec. VI-B / VIII-C). *)
  let topo =
    Smi.chain ~devices:partition.Partition.num_devices
      ~links_per_hop:device.Device.links_per_hop
  in
  let max_w = Smi.max_vector_width topo device ~element_bytes:4 ~streams_per_hop:1 in
  Format.printf "largest vector width sustainable across devices: W = %d@." max_w;

  (* Simulate the partitioned system with realistic link parameters:
     the device's combined link bandwidth and a 128-cycle latency. *)
  let config =
    Engine.Config.make
      ~network:
        (Engine.Config.network
           ~net_bytes_per_cycle:(Device.link_bytes_per_cycle device)
           ~net_latency_cycles:128 ())
      ()
  in
  let placement = Partition.placement_fn partition in
  match Engine.run_and_validate ~config ~placement program with
  | Error m -> Format.printf "simulation failed: %s@." (Sf_support.Diag.to_string m)
  | Ok stats ->
      Format.printf "simulated %d cycles (model: %d) across %d devices@." stats.Engine.cycles
        stats.Engine.predicted_cycles partition.Partition.num_devices;
      Format.printf "network traffic: %d B; outputs match the reference@."
        stats.Engine.network_bytes
