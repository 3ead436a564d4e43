(** Off-chip memory readers and writers.

    Source fields are instantiated as dedicated prefetchers that read
    ahead of computations; dedicated writers at sink nodes buffer data
    while waiting for DRAM writes (paper, Sec. VI-A). Both contend for
    their device's {!Controller} bandwidth. *)

module Reader : sig
  type t

  val create :
    ?probe:Telemetry.probe ->
    name:string ->
    tensor:Sf_reference.Tensor.t ->
    vector_width:int ->
    element_bytes:int ->
    controller:Controller.t ->
    outputs:Channel.t list ->
    unit ->
    t
  (** Streams the tensor row-major, one word per cycle when bandwidth and
      all consumer channels allow, multicasting to every consumer.
      [probe] classifies no-progress cycles (output-full vs
      bandwidth-denied) into the telemetry registry. *)

  val cycle : t -> now:int -> bool
  val is_done : t -> bool
  val name : t -> string
  val words_remaining : t -> int
  val words_streamed : t -> int
  val word_bytes : t -> int

  val run_fast : t -> int -> unit
  (** [run_fast t n] streams [n] words unchecked, for the engine's
      fast-forward path, with one ring copy per output: requires room
      for them in every output (up to {!Channel.chunk} words past the
      capacity) and the controller to be {!Controller.is_unlimited}. *)

  val full_outputs : t -> int list
  (** The consumer channels exerting backpressure, by position in
      [outputs], in order; [\[\]] when done. The first one is the
      channel {!cycle} blames for a stall, and the deadlock diagnosis
      reads them all. *)
end

module Writer : sig
  type t

  val create :
    ?probe:Telemetry.probe ->
    ?on_done:(unit -> unit) ->
    name:string ->
    shape:int list ->
    vector_width:int ->
    element_bytes:int ->
    controller:Controller.t ->
    input:Channel.t ->
    unit ->
    t
  (** Commits the valid lanes of each word: [input] must carry validity
      flags ([Invalid_argument] otherwise). [on_done] fires once, when
      the final word is committed — the engine
      uses it to maintain a completed-writer counter so the hot loop's
      termination test is a single integer comparison. [probe]
      classifies no-progress cycles (input-starved vs bandwidth-denied)
      into the telemetry registry. *)

  val cycle : t -> now:int -> bool
  val is_done : t -> bool
  val name : t -> string

  val words_remaining : t -> int

  val bytes_committed : t -> int
  (** Bytes of valid (non-shrunk) elements committed so far. *)

  val run_fast : t -> int -> unit
  (** [run_fast t n] commits [n] words unchecked, for the engine's
      fast-forward path, in one loop with one bandwidth account:
      requires [n] words in the input and an
      {!Controller.is_unlimited} controller. *)

  val result : t -> Sf_reference.Interp.result
  (** The written tensor with its validity mask ("shrink" cells are left
      at zero and marked invalid). *)

  val blocked_reason : t -> string option

  val waiting_on_input : t -> bool
end
