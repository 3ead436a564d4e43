module Report = Sf_codegen.Report

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_report_contents () =
  let p = Sf_kernels.Hdiff.program ~shape:[ 8; 32; 32 ] () in
  let md = Report.markdown p in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("report contains " ^ fragment) true (contains md fragment))
    [
      "# StencilFlow report: horizontal_diffusion";
      "## Stencil DAG";
      "## Delay buffers";
      "## Runtime model (Eq. 1)";
      "## Data movement and roofline";
      "## Resources on";
      "## Vectorization sweep";
      "<- recommended";
      "## Device mapping";
      "fits on 1 device(s)";
    ]

let suite = [ Alcotest.test_case "markdown report contents" `Quick test_report_contents ]
