val of_name : string -> string
(** A program name as it is spelled inside identifiers, after a fixed
    prefix such as [ch_], [stencil_], [sr_], [pe_] or [out_]: by both
    code generation backends and by the SDFG's container names.
    Injective, and the identity on plain names: C identifiers of
    letters, digits and single inner underscores that start with a
    letter, other than [mem], [mem_...] and [..._dev<digits>]. Any other
    name becomes [0] followed by its letters and digits, and [_XX] (two
    upper-case hex digits) for each other byte. No result contains [__]
    or ends in [_], so [<a>__<b>] names one pair, as in the channel
    [ch_<src>__<dst>]. *)
