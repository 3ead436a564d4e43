(* --compare A B: judge two sets of runs against the benchmark's bounds.

   A set is a JSON-lines file of run records (flowbench --out). For every
   workload and end-to-end metric, each set's median and quartiles over
   its untraced runs are printed with a verdict:
   - "within bound": B's median is not worse than A's by more than the
     metric's bound;
   - "regression": it is worse by more than the bound, and both spreads
     are within it;
   - "unresolved": a spread (quartile distance over median) is wider
     than the bound, unless every run of B reads better than every run
     of A.
   The exact model counts of the traced runs must also be identical. *)

open Stencilflow

type bound = { better : string; bound : float }

let exact_counts =
  [
    "sim.sim_cycles";
    "sim.channel.words_pushed";
    "ir.op_count.work_flops_per_cell";
    "sim.link.network_bytes";
    "sim.telemetry.stall_cycles.input_starved";
    "sim.telemetry.stall_cycles.output_full";
    "sim.telemetry.stall_cycles.bandwidth_denied";
    "sim.telemetry.stall_cycles.link_latency";
    "sim.telemetry.stall_cycles.pipeline_drain";
  ]

let read_records file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.of_string

let str k j = Option.bind (Json.member k j) Json.string_opt |> Option.value ~default:""
let int k j = Option.bind (Json.member k j) Json.int_opt |> Option.value ~default:0

let value name record =
  Option.bind (Json.member "metrics" record) (Json.member name)
  |> Fun.flip Option.bind (Json.member "value")
  |> Fun.flip Option.bind Json.float_opt

let bounds spec_file =
  List.map
    (fun m -> (str "name" m, { better = str "better" m; bound = Json.get_float (Json.member_exn "bound" m) }))
    (Json.get_list (Json.member_exn "end_to_end" (Json.of_file spec_file)))

let workloads records =
  List.sort_uniq compare (List.map (str "workload") records)

let values ~workload ~trace name records =
  List.filter_map
    (fun r -> if str "workload" r = workload && int "trace" r = trace then value name r else None)
    records

(* Positive when [b] is worse than [a] under the metric's direction. *)
let worsening b a ~better = if better = "higher" then (a -. b) /. a else (b -. a) /. a

let verdict ~bound ~better xs ys =
  let sa = Stats.summary xs and sb = Stats.summary ys in
  let all_better =
    let best_a = List.fold_left (if better = "higher" then Float.max else Float.min) (List.hd xs) xs in
    List.for_all (fun y -> worsening y best_a ~better < 0.) ys
  in
  if Stats.spread sa > bound || Stats.spread sb > bound then
    if all_better then "within bound" else "unresolved"
  else if worsening sb.Stats.med sa.Stats.med ~better > bound then "regression"
  else "within bound"

let run ~spec a_file b_file =
  let spec = bounds spec in
  let a = read_records a_file and b = read_records b_file in
  let verdicts = ref [] in
  let pp_summary xs =
    let s = Stats.summary xs in
    Printf.sprintf "%.6g [%.6g, %.6g] spread %.3f n=%d" s.Stats.med s.Stats.q1 s.Stats.q3
      (Stats.spread s) (List.length xs)
  in
  List.iter
    (fun w ->
      Printf.printf "== %s\n" w;
      List.iter
        (fun (name, { better; bound }) ->
          let xs = values ~workload:w ~trace:0 name a and ys = values ~workload:w ~trace:0 name b in
          if xs = [] || ys = [] then begin
            verdicts := "missing" :: !verdicts;
            Printf.printf "  %-12s missing in %s\n" name (if xs = [] then a_file else b_file)
          end
          else begin
            let v = verdict ~bound ~better xs ys in
            verdicts := v :: !verdicts;
            Printf.printf "  %-12s A %s\n  %-12s B %s\n  %-12s change %+.2f%% (bound %.0f%%, %s is better): %s\n"
              name (pp_summary xs) "" (pp_summary ys) ""
              (100. *. -.worsening (Stats.median ys) (Stats.median xs) ~better)
              (100. *. bound) better v
          end)
        spec;
      let differing =
        List.filter
          (fun name ->
            let all = values ~workload:w ~trace:1 name a @ values ~workload:w ~trace:1 name b in
            List.length (List.sort_uniq compare all) > 1)
          exact_counts
      in
      if differing = [] then Printf.printf "  exact counts identical across traced runs\n"
      else begin
        verdicts := "counts differ" :: !verdicts;
        Printf.printf "  exact counts differ: %s\n" (String.concat ", " differing)
      end)
    (workloads (a @ b));
  let bad = List.filter (fun v -> v <> "within bound") !verdicts in
  Printf.printf "%d verdicts, %d not within bound\n" (List.length !verdicts) (List.length bad);
  if List.exists (fun v -> v = "regression" || v = "counts differ" || v = "missing") bad then 1 else 0
