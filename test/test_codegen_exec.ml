(* End-to-end code generation validation: the Vitis backend's output is
   real C++. With a stub hls_stream.h (unbounded queues) the dataflow
   region can execute sequentially — the top function already invokes
   readers, processing elements and writers in topological order, so each
   stage finds its whole input stream filled. Compiling the generated
   source with g++ and running it against the reference interpreter
   validates every lowering decision end to end: expression rendering,
   shift-register taps, boundary predication, initialization/drain
   scheduling and stream wiring.

   The generated kernels compute in 32-bit floats while the reference is
   double precision, hence the comparison tolerance. *)
open Sf_ir
module Vitis = Sf_codegen.Vitis
module Interp = Sf_reference.Interp
module Tensor = Sf_reference.Tensor

let gxx_available = Sys.command "g++ --version > /dev/null 2>&1" = 0

let hls_stub =
  {|
#pragma once
#include <deque>
#include <cmath>
namespace hls {
template <typename T> class stream {
  std::deque<T> q;
public:
  void write(const T &v) { q.push_back(v); }
  T read() { T v = q.front(); q.pop_front(); return v; }
};
}
|}

let write_file dir name contents =
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  path

let c_float_array name values =
  Printf.sprintf "float %s[%d] = {%s};\n" name (Array.length values)
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.9gf") values)))

(* Build main.cpp: embed the input data, call the top function, print the
   outputs one value per line. *)
let harness (p : Program.t) inputs =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "#include <cstdio>\n";
  let mem_params =
    List.map (fun (_ : Field.t) -> "const float*") p.Program.inputs
    @ List.map (fun _ -> "float*") p.Program.outputs
  in
  add "extern \"C\" void %s(%s);\n" (Vitis.top_function_name p) (String.concat ", " mem_params);
  List.iter
    (fun (f : Field.t) ->
      let t : Tensor.t = List.assoc f.Field.name inputs in
      add "%s" (c_float_array ("in_" ^ Ident.of_name f.Field.name) t.Tensor.data))
    p.Program.inputs;
  List.iter (fun o -> add "float out_%s[%d];\n" (Ident.of_name o) (Program.cells p)) p.Program.outputs;
  add "int main() {\n  %s(%s);\n" (Vitis.top_function_name p)
    (String.concat ", "
       (List.map (fun (f : Field.t) -> "in_" ^ Ident.of_name f.Field.name) p.Program.inputs
       @ List.map (fun o -> "out_" ^ Ident.of_name o) p.Program.outputs));
  List.iter
    (fun o ->
      add "  for (int i = 0; i < %d; ++i) printf(\"%%.9g\\n\", (double)out_%s[i]);\n"
        (Program.cells p) (Ident.of_name o))
    p.Program.outputs;
  add "  return 0;\n}\n";
  Buffer.contents buf

let compare_against_reference (p : Program.t) inputs values =
  let reference = Interp.run p ~inputs in
  let cells = Program.cells p in
  Alcotest.(check int) "value count" (cells * List.length p.Program.outputs) (List.length values);
  let values = Array.of_list values in
  List.iteri
    (fun oi (name, (r : Interp.result)) ->
      Array.iteri
        (fun i expected ->
          let got = values.((oi * cells) + i) in
          (* f32 kernel vs f64 reference. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s[%d]: %g vs %g" name i got expected)
            true
            (Float.abs (got -. expected) <= 1e-4 *. Float.max 1. (Float.abs expected)))
        r.Interp.tensor.Tensor.data)
    reference

let run_generated (p : Program.t) =
  let inputs = Interp.random_inputs p in
  let dir = Filename.temp_dir "sf_vitis" "" in
  let _ = write_file dir "hls_stream.h" hls_stub in
  let _ = write_file dir "hls_math.h" "#pragma once\n#include <cmath>\n" in
  let _ = write_file dir "kernel.cpp" (Fixtures.ok (Vitis.generate p)) in
  let _ = write_file dir "main.cpp" (harness p inputs) in
  let exe = Filename.concat dir "run" in
  let cmd =
    Printf.sprintf "g++ -std=c++17 -w -I%s %s/kernel.cpp %s/main.cpp -o %s 2> %s/gcc.log" dir
      dir dir exe dir
  in
  if Sys.command cmd <> 0 then begin
    let log = In_channel.with_open_text (Filename.concat dir "gcc.log") In_channel.input_all in
    Alcotest.fail ("generated code does not compile:\n" ^ log)
  end;
  let out = Filename.concat dir "out.txt" in
  if Sys.command (Printf.sprintf "%s > %s" exe out) <> 0 then
    Alcotest.fail "generated binary crashed";
  let values =
    In_channel.with_open_text out (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | Some line -> go (float_of_string line :: acc)
          | None -> List.rev acc
        in
        go [])
  in
  let reference = Interp.run p ~inputs in
  let cells = Program.cells p in
  Alcotest.(check int) "value count" (cells * List.length p.Program.outputs) (List.length values);
  let values = Array.of_list values in
  List.iteri
    (fun oi (name, (r : Interp.result)) ->
      Array.iteri
        (fun i expected ->
          let got = values.((oi * cells) + i) in
          (* f32 kernel vs f64 reference. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s[%d]: %g vs %g" name i got expected)
            true
            (Float.abs (got -. expected) <= 1e-4 *. Float.max 1. (Float.abs expected)))
        r.Interp.tensor.Tensor.data)
    reference

(* ------------------------------------------------------------------ *)
(* OpenCL backend execution: the Intel-style kernels use channels and
   OpenCL qualifiers; a small textual transformation maps them onto the
   same hls::stream emulation (channels become global streams, kernels
   become plain functions), after which the kernels run sequentially in
   topological order. *)

let replace_all ~needle ~by s =
  let nl = String.length needle in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - nl do
    if String.sub s !i nl = needle then begin
      Buffer.add_string buf by;
      i := !i + nl
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf (String.sub s !i (String.length s - !i));
  Buffer.contents buf

(* Rewrite [prefix(arg1{, arg2})] into a method call; arguments in the
   generated code are simple identifiers/expressions without nested
   commas at the top level of arg1. *)
let rewrite_channel_call ~prefix ~render s =
  let pl = String.length prefix in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    if !i + pl <= n && String.sub s !i pl = prefix then begin
      (* Find the matching close paren (depth-aware for arg2). *)
      let j = ref (!i + pl) in
      let depth = ref 1 in
      let comma = ref (-1) in
      while !depth > 0 do
        (match s.[!j] with
        | '(' -> incr depth
        | ')' -> decr depth
        | ',' -> if !depth = 1 && !comma < 0 then comma := !j
        | _ -> ());
        incr j
      done;
      let stop = !j - 1 in
      let arg1_end = if !comma >= 0 then !comma else stop in
      let arg1 = String.trim (String.sub s (!i + pl) (arg1_end - !i - pl)) in
      let arg2 =
        if !comma >= 0 then Some (String.trim (String.sub s (!comma + 1) (stop - !comma - 1)))
        else None
      in
      Buffer.add_string buf (render arg1 arg2);
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let strip_lines ~starting_with s =
  String.split_on_char '\n' s
  |> List.filter (fun line ->
         let t = String.trim line in
         not (List.exists (fun p ->
                  String.length t >= String.length p && String.sub t 0 (String.length p) = p)
                starting_with))
  |> String.concat "\n"

let opencl_to_cpp source =
  let s = source in
  let s =
    strip_lines s
      ~starting_with:
        [ "#pragma OPENCL"; "#include \"smi.h\""; "__attribute__((max_global_work_dim";
          "__attribute__((autorun))"; "#pragma unroll" ]
  in
  (* channel float NAME __attribute__((depth(N))); -> stream declaration *)
  let s = replace_all ~needle:"channel float " ~by:"hls::stream<float> CHDECL_" s in
  (* Neutralize the depth attribute on the rewritten declarations. *)
  let s = rewrite_channel_call ~prefix:"__attribute__((depth(" ~render:(fun _ _ -> "/*depth*/ ") s in
  let s = replace_all ~needle:"))/*depth*/" ~by:"/*depth*/" s in
  let s = replace_all ~needle:"/*depth*/ ))" ~by:"" s in
  let s =
    rewrite_channel_call ~prefix:"read_channel_intel(" ~render:(fun a _ -> a ^ ".read()") s
  in
  let s =
    rewrite_channel_call ~prefix:"write_channel_intel("
      ~render:(fun a b -> match b with Some v -> a ^ ".write(" ^ v ^ ")" | None -> a) s
  in
  let s = replace_all ~needle:"__kernel void" ~by:"void" s in
  let s = replace_all ~needle:"__global const float* restrict" ~by:"const float*" s in
  let s = replace_all ~needle:"__global float* restrict" ~by:"float*" s in
  (* Channel *references* inside kernels keep their plain names; align the
     declarations back to plain names. *)
  let s = replace_all ~needle:"CHDECL_" ~by:"" s in
  "#include <hls_stream.h>\n#include <cmath>\n" ^ s

let opencl_harness (p : Program.t) inputs =
  let rank = Program.rank p in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "#include <cstdio>\n";
  let full_inputs = List.filter (fun f -> Field.rank f = rank) p.Program.inputs in
  let lower_inputs = List.filter (fun f -> Field.rank f < rank) p.Program.inputs in
  List.iter
    (fun (f : Field.t) ->
      let t : Tensor.t = List.assoc f.Field.name inputs in
      add "%s" (c_float_array ("in_" ^ Ident.of_name f.Field.name) t.Tensor.data))
    p.Program.inputs;
  List.iter (fun o -> add "float out_%s[%d];\n" (Ident.of_name o) (Program.cells p)) p.Program.outputs;
  add "int main() {\n";
  List.iter
    (fun (f : Field.t) ->
      let f = Ident.of_name f.Field.name in
      add "  load_%s(in_%s);\n" f f)
    lower_inputs;
  List.iter
    (fun (f : Field.t) ->
      let f = Ident.of_name f.Field.name in
      add "  read_%s(in_%s);\n" f f)
    full_inputs;
  List.iter (fun (s : Stencil.t) -> add "  stencil_%s();\n" (Ident.of_name s.Stencil.name))
    (Program.topological_stencils p);
  List.iter (fun o -> add "  write_%s(out_%s);\n" (Ident.of_name o) (Ident.of_name o)) p.Program.outputs;
  List.iter
    (fun o ->
      add "  for (int i = 0; i < %d; ++i) printf(\"%%.9g\\n\", (double)out_%s[i]);\n"
        (Program.cells p) (Ident.of_name o))
    p.Program.outputs;
  add "  return 0;\n}\n";
  Buffer.contents buf

let run_generated_opencl (p : Program.t) =
  let inputs = Interp.random_inputs p in
  let dir = Filename.temp_dir "sf_opencl" "" in
  let _ = write_file dir "hls_stream.h" hls_stub in
  let artifact =
    match Fixtures.ok (Sf_codegen.Opencl.generate p) with
    | [ a ] -> a.Sf_codegen.Opencl.source
    | _ -> Alcotest.fail "expected single-device artifact"
  in
  (* Kernel source first, then the harness in the same translation unit so
     the global channels are shared. *)
  let combined = opencl_to_cpp artifact ^ "\n" ^ opencl_harness p inputs in
  let _ = write_file dir "combined.cpp" combined in
  let exe = Filename.concat dir "run" in
  let cmd =
    Printf.sprintf "g++ -std=c++17 -w -I%s %s/combined.cpp -o %s 2> %s/gcc.log" dir dir exe dir
  in
  if Sys.command cmd <> 0 then begin
    let log = In_channel.with_open_text (Filename.concat dir "gcc.log") In_channel.input_all in
    Alcotest.fail ("transformed OpenCL does not compile:\n" ^ log)
  end;
  let out = Filename.concat dir "out.txt" in
  if Sys.command (Printf.sprintf "%s > %s" exe out) <> 0 then
    Alcotest.fail "binary crashed";
  let values =
    In_channel.with_open_text out (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | Some line -> go (float_of_string line :: acc)
          | None -> List.rev acc
        in
        go [])
  in
  compare_against_reference p inputs values

let exec_case name build =
  Alcotest.test_case name `Slow (fun () ->
      if not gxx_available then () else run_generated (build ()))

let branchy_program () =
  let b = Builder.create ~name:"branchy" ~shape:[ 6; 8 ] () in
  Builder.input b "a";
  Builder.stencil b
    ~boundary:[ ("a", Boundary.Copy) ]
    ~lets:[ ("t", Builder.E.(acc "a" [ 0; -1 ] +% acc "a" [ 0; 1 ])) ]
    "s"
    Builder.E.(
      sel (var "t" >% c 0.) (sqrt_ (abs_ (var "t"))) (min_ (var "t") (acc "a" [ -1; 0 ])));
  Builder.output b "s";
  Builder.finish b

let suite =
  if not gxx_available then []
  else
    [
      exec_case "compiled laplace matches the reference" (fun () ->
          Fixtures.laplace2d ~shape:[ 8; 8 ] ());
      exec_case "compiled diamond (streams between PEs)" (fun () ->
          Fixtures.diamond ~shape:[ 6; 12 ] ~span:2 ());
      exec_case "compiled chain (3 PEs)" (fun () -> Fixtures.chain ~shape:[ 6; 8 ] ~n:3 ());
      exec_case "compiled branches, lets, copy boundary" branchy_program;
      exec_case "compiled vectorized kernel (W=2)" (fun () ->
          Fixtures.laplace2d ~shape:[ 6; 8 ] ~vector_width:2 ());
      exec_case "compiled multi-output fork" (fun () -> Fixtures.fork ~shape:[ 6; 6 ] ());
      Alcotest.test_case "compiled OpenCL backend: laplace" `Slow (fun () ->
          if gxx_available then run_generated_opencl (Fixtures.laplace2d ~shape:[ 8; 8 ] ()));
      Alcotest.test_case "compiled OpenCL backend: diamond" `Slow (fun () ->
          if gxx_available then run_generated_opencl (Fixtures.diamond ~shape:[ 6; 12 ] ~span:2 ()));
      Alcotest.test_case "compiled OpenCL backend: vectorized chain" `Slow (fun () ->
          if gxx_available then
            run_generated_opencl (Fixtures.chain ~shape:[ 6; 8 ] ~n:2 ~vector_width:2 ()));
      exec_case "compiled kitchen sink (lower-dim, scalar, shrink)" (fun () ->
          Fixtures.kitchen_sink ~shape:[ 3; 4; 8 ] ());
      Alcotest.test_case "compiled OpenCL backend: kitchen sink" `Slow (fun () ->
          if gxx_available then
            run_generated_opencl (Fixtures.kitchen_sink ~shape:[ 3; 4; 8 ] ()));
      exec_case "compiled colliding names" Test_codegen.colliding_names;
      Alcotest.test_case "compiled OpenCL backend: colliding names" `Slow (fun () ->
          if gxx_available then run_generated_opencl (Test_codegen.colliding_names ()));
    ]
