module Tensor = Sf_reference.Tensor

module Reader = struct
  type t = {
    name : string;
    tensor : Tensor.t;
    vector_width : int;
    element_bytes : int;
    controller : Controller.t;
    outputs : Channel.t array;
    n_words : int;
    mutable pos : int; (* words streamed so far *)
    probe : Telemetry.probe option;
  }

  let create ?probe ~name ~tensor ~vector_width ~element_bytes ~controller ~outputs () =
    let elements = Tensor.num_elements tensor in
    if elements mod vector_width <> 0 then
      invalid_arg "Reader.create: vector width does not divide field size";
    {
      name;
      tensor;
      vector_width;
      element_bytes;
      controller;
      outputs = Array.of_list outputs;
      n_words = elements / vector_width;
      pos = 0;
      probe;
    }

  let is_done t = t.pos >= t.n_words
  let name t = t.name
  let words_remaining t = t.n_words - t.pos
  let words_streamed t = t.pos
  let word_bytes t = t.vector_width * t.element_bytes

  (* Multicast the next [n] words in place: [n] fresh slots per output,
     lanes copied straight from the backing tensor. *)
  let emit t n push =
    let base_flat = t.pos * t.vector_width and len = n * t.vector_width in
    for i = 0 to Array.length t.outputs - 1 do
      let c = t.outputs.(i) in
      let base = push c n in
      Channel.Unsafe.blit_values t.tensor.Tensor.data base_flat (Channel.Unsafe.buf_values c) base
        len
    done;
    t.pos <- t.pos + n

  (* The outputs exerting backpressure, by position, none when done. *)
  let full_outputs t =
    let acc = ref [] in
    if not (is_done t) then
      for k = Array.length t.outputs - 1 downto 0 do
        if Channel.is_full t.outputs.(k) then acc := k :: !acc
      done;
    !acc

  let cycle t ~now =
    if is_done t then false
    else
      match full_outputs t with
      | k :: _ ->
          (match t.probe with
          | None -> ()
          | Some p ->
              Telemetry.stall p ~now ~channel:(Channel.name t.outputs.(k)) Telemetry.Output_full);
          false
      | [] when not (Controller.request t.controller (t.vector_width * t.element_bytes)) ->
          (match t.probe with
          | None -> ()
          | Some p -> Telemetry.stall p ~now Telemetry.Bandwidth_denied);
          false
      | [] ->
          emit t 1 Channel.Unsafe.push_slots;
          (match t.probe with None -> () | Some p -> Telemetry.busy p ~now ~cycles:1);
          true

  (* [n] unchecked cycles for the fast-forward path: the engine has
     verified output space for the whole window and that the controller
     is unlimited. *)
  let run_fast t n =
    Controller.account t.controller (n * t.vector_width * t.element_bytes);
    emit t n Channel.Unsafe.push_run
end

module Writer = struct
  type t = {
    name : string;
    tensor : Tensor.t;
    valid : bool array;
    vector_width : int;
    element_bytes : int;
    controller : Controller.t;
    input : Channel.t;
    n_words : int;
    mutable pos : int;
    mutable bytes_committed : int;
    on_done : unit -> unit;
    probe : Telemetry.probe option;
  }

  let create ?probe ?(on_done = fun () -> ()) ~name ~shape ~vector_width ~element_bytes
      ~controller ~input () =
    let tensor = Tensor.create shape in
    let elements = Tensor.num_elements tensor in
    if elements mod vector_width <> 0 then
      invalid_arg "Writer.create: vector width does not divide output size";
    if not (Channel.has_validity input) then
      invalid_arg "Writer.create: the input channel carries no validity flags";
    {
      name;
      tensor;
      valid = Array.make elements true;
      vector_width;
      element_bytes;
      controller;
      input;
      n_words = elements / vector_width;
      pos = 0;
      bytes_committed = 0;
      on_done;
      probe;
    }

  let is_done t = t.pos >= t.n_words
  let name t = t.name
  let words_remaining t = t.n_words - t.pos
  let bytes_committed t = t.bytes_committed

  let front_valid_count t =
    let base = Channel.Unsafe.front_slot t.input in
    let valid = Channel.Unsafe.buf_valid t.input in
    let n = ref 0 in
    for lane = 0 to t.vector_width - 1 do
      if valid.(base + lane) then incr n
    done;
    !n

  (* Commit the input's [n] front words to the output tensor in place. *)
  let commit t n =
    let values = Channel.Unsafe.buf_values t.input in
    let valid = Channel.Unsafe.buf_valid t.input in
    let slot = ref (Channel.Unsafe.front_slot t.input) and committed = ref 0 in
    for idx = t.pos * t.vector_width to ((t.pos + n) * t.vector_width) - 1 do
      if valid.(!slot) then begin
        t.tensor.Tensor.data.(idx) <- values.(!slot);
        incr committed
      end
      else t.valid.(idx) <- false;
      incr slot;
      if !slot = Array.length values then slot := 0
    done;
    t.bytes_committed <- t.bytes_committed + (!committed * t.element_bytes);
    Channel.Unsafe.drop_run t.input n;
    t.pos <- t.pos + n;
    if t.pos >= t.n_words then t.on_done ()

  let cycle t ~now =
    if is_done t then false
    else if Channel.is_empty t.input then begin
      (match t.probe with
      | None -> ()
      | Some p ->
          Telemetry.stall p ~now ~channel:(Channel.name t.input)
            Telemetry.Input_starved);
      false
    end
    else begin
      (* Only valid (non-shrunk) elements consume write bandwidth. *)
      let valid_count = front_valid_count t in
      if valid_count > 0 && not (Controller.request t.controller (valid_count * t.element_bytes))
      then begin
        (match t.probe with
        | None -> ()
        | Some p -> Telemetry.stall p ~now Telemetry.Bandwidth_denied);
        false
      end
      else begin
        commit t 1;
        (match t.probe with None -> () | Some p -> Telemetry.busy p ~now ~cycles:1);
        true
      end
    end

  (* [n] unchecked cycles for the fast-forward path (input known to
     hold [n] words, controller known unlimited). Only valid lanes
     consume bandwidth, as in [cycle]. *)
  let run_fast t n =
    let before = t.bytes_committed in
    commit t n;
    Controller.account t.controller (t.bytes_committed - before)

  let result t = { Sf_reference.Interp.tensor = t.tensor; valid = t.valid }

  let blocked_reason t =
    if is_done t then None
    else if Channel.is_empty t.input then Some "waiting on empty input stream"
    else Some "waiting for memory bandwidth"

  let waiting_on_input t = (not (is_done t)) && Channel.is_empty t.input
end
