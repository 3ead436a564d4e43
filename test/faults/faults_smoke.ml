(* Fixed-seed fault campaign over the seed example programs, wired into
   `dune build @faults` (and through it into `dune runtest`). For every
   example: a seeded campaign at the analysed depths must complete
   bit-identical to the unperturbed run, and under-provisioning the
   tightest delay-buffer edge to its largest deadlocking capacity must
   report a deterministic SF0701 with fault-attribution notes. This is
   the end-to-end form of the claims test/test_faults.ml pins on the
   curated fixtures. *)
open Stencilflow

let schedules = 5

let examples_dir =
  List.find Sys.file_exists
    [ "examples/programs"; "../examples/programs"; "../../examples/programs" ]

let check name ok = if not ok then failwith name

let load file =
  match Program_json.of_file file with
  | Ok p -> p
  | Error ds -> failwith (String.concat "; " (List.map Diag.to_string ds))

let run_example file =
  let p = load (Filename.concat examples_dir file) in
  let inputs = Interp.random_inputs ~seed:42 p in
  (* The analysed-depth claim is per edge of the UNFUSED graph. One
     analysis serves the campaign and the probe. *)
  let prepared = Engine.prepare_program p in
  (match Faults.campaign_prepared ~inputs ~schedules prepared with
  | Error d -> failwith (Printf.sprintf "%s: baseline failed: %s" file (Diag.to_string d))
  | Ok report ->
      List.iter
        (fun (r, d) ->
          failwith
            (Printf.sprintf "%s: seed %d FAILED: %s" file r.Faults.seed (Diag.to_string d)))
        (Faults.failures report);
      Printf.printf "%-32s campaign %d/%d bit-identical (%d cycles)" file schedules
        schedules report.Faults.baseline_cycles);
  (match Faults.probe_tightest ~inputs prepared with
  | None -> Printf.printf ", no positive-depth edge\n"
  | Some { Faults.tight_capacity = None; edge = src, dst; _ } ->
      Printf.printf ", %s->%s not load-bearing\n" src dst
  | Some { Faults.tight_capacity = Some tight; probe_diag; edge = _; analysed_depth } -> (
      match probe_diag with
      | None -> failwith (file ^ ": probe run unexpectedly completed")
      | Some d ->
          check
            (file ^ ": probe must deadlock (SF0701)")
            (String.equal d.Diag.code Diag.Code.sim_deadlock);
          check
            (file ^ ": probe diag must attribute injected faults")
            (List.exists (String.starts_with ~prefix:"fault-attribution:") d.Diag.notes);
          Printf.printf ", tight capacity %d of analysed %d: %s\n" tight analysed_depth
            d.Diag.code));
  flush stdout

let () =
  let examples =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".json")
         (Array.to_list (Sys.readdir examples_dir)))
  in
  List.iter run_example examples;
  Printf.printf "faults smoke: %d example(s) validated\n" (List.length examples)
