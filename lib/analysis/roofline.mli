(** Roofline model arithmetic (paper, Sec. IX-A, Eqs. 3-4; [27]).

    Performance of a bandwidth-bound program is capped by arithmetic
    intensity times achievable memory bandwidth; a compute-bound program
    needs bandwidth proportional to its throughput divided by intensity. *)

val attainable_ops_per_s : ai_ops_per_byte:float -> bandwidth_bytes_per_s:float -> float
(** Eq. 3: the bandwidth-imposed performance ceiling. *)

val bandwidth_to_saturate : compute_ops_per_s:float -> ai_ops_per_byte:float -> float
(** Eq. 4: bandwidth required to keep a compute rate fed. *)

val fraction_of_roof :
  measured_ops_per_s:float -> ai_ops_per_byte:float -> bandwidth_bytes_per_s:float -> float
(** The "%Roof." column of Table II, in [0, 1] (can exceed 1 only if the
    measurement beats the model). *)
