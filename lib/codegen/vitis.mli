(** Second code-generation backend: Xilinx-style HLS C++.

    The paper notes that "supporting Xilinx FPGAs, emitting RTL code
    directly, or targeting other spatial systems entirely will only
    require adapting the stencil library node expansion" (Sec. VI). This
    backend demonstrates that claim: it prints the same expanded SDFG as
    {!Opencl} ({!Opencl.lower}), as Vitis-HLS C++ — one dataflow region
    whose processing elements, one per pipeline scope, communicate
    through [hls::stream] channels carrying the ports' analysed depths,
    with [PIPELINE II=1] loops and partitioned shift registers. It derives
    no schedule of its own.

    Single-device only (Xilinx boards in the paper's comparison have no
    SMI equivalent); use {!Opencl} for multi-device programs. *)

val source : Sf_sdfg.Sdfg.t -> string
(** The full kernel source of an expanded single-device SDFG (streams,
    one function per processing element, and the [dataflow] top
    function). *)

val generate : Sf_ir.Program.t -> (string, Sf_support.Diag.t list) result
(** {!source} of {!Opencl.lower}. Validation problems surface as [SF0301]
    diagnostics; internal lowering failures as [SF0601]. *)

val top_function_name : Sf_ir.Program.t -> string
