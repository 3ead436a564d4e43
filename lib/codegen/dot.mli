(** Graphviz export of stencil program DAGs (as in Fig. 2 / Fig. 17).

    Nodes are input fields (boxes) and stencils (ellipses); edges carry
    the analysed delay-buffer depths. Used by the CLI and by the fusion
    study to visualize the horizontal-diffusion DAG before and after
    aggressive fusion. *)

val of_program : ?with_buffers:bool -> Sf_ir.Program.t -> string
(** DOT source. When [with_buffers] (default true), each edge is labelled
    with its delay-buffer depth in words; prefetched lower-dimensional
    inputs get dashed edges. Raises [Invalid_argument] as
    {!Sf_ir.Program.check_exn} does. *)
