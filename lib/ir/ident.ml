(* The reserved names are those that the fixed parts of identifiers
   could complete: [ch_<o>__mem] (an output's memory channel),
   [out_mem_<s>] (a processing element's memory port) and
   [buf_<f>_dev<d>] (a host buffer). An escaped name starts with a
   digit, so it is no plain name, and it decodes back, so no two names
   meet. Neither kind contains [__] or ends in [_], so [__] joins two
   names unambiguously. *)
let of_name name =
  let alnum = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false in
  let digits s = s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s in
  let words = String.split_on_char '_' name in
  let last = List.nth words (List.length words - 1) in
  let plain =
    List.for_all (fun w -> w <> "" && String.for_all alnum w) words
    && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' -> true | _ -> false)
    && List.hd words <> "mem"
    && not
         (List.length words > 1
         && String.starts_with ~prefix:"dev" last
         && digits (String.sub last 3 (String.length last - 3)))
  in
  if plain then name
  else begin
    let b = Buffer.create ((3 * String.length name) + 1) in
    Buffer.add_char b '0';
    String.iter
      (fun c -> if alnum c then Buffer.add_char b c else Printf.bprintf b "_%02X" (Char.code c))
      name;
    Buffer.contents b
  end
