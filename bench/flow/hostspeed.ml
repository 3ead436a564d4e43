(* Host-speed calibration.

   On a host whose cores are shared with other tenants, their load changes
   how fast the same instructions run by 10-20% over tens of seconds (CPU
   time rises with wall time, so it is not descheduling). A fixed kernel
   of plain OCaml — map inserts, a float sort, folds; nothing from this
   repository — is timed just before a measurement, and the measurement
   is reported at the reference host speed: raw seconds x (reference
   kernel time / kernel time measured alongside). A change to the program
   under test moves the raw time and leaves the kernel alone, so it moves
   the reported time in full; a slower host moves both. *)

module M = Map.Make (Int)

let kernel () =
  let m = ref M.empty in
  for i = 0 to 20_000 do
    m := M.add ((i * 7919) land 65535) (float_of_int i) !m
  done;
  let a = Array.init 50_000 (fun i -> float_of_int ((i * 7919) land 4095)) in
  Array.sort Float.compare a;
  let acc = ref 0. in
  M.iter (fun _ v -> acc := !acc +. v) !m;
  Array.iter (fun v -> acc := !acc +. (v *. 0.5)) a;
  ignore (Sys.opaque_identity !acc)

(* The kernel's median time on the 2-core host that recorded the first
   baseline in results/, in seconds. *)
let reference_s = 0.02

let measure () =
  let t0 = Stencilflow.Util.monotime () in
  kernel ();
  Stencilflow.Util.monotime () -. t0

(* Multiply a raw time measured next to a kernel run of [calib] seconds
   by this to express it at the reference host speed. *)
let factor calib = reference_s /. calib
