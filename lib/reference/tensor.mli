(** Dense row-major tensors holding field data.

    Used by the reference interpreter and by the simulator's memory units.
    A 0-dimensional tensor (extent []) holds a single scalar. *)

type t = { extent : int list; data : float array }

val create : ?init:float -> int list -> t
val of_fn : int list -> (int list -> float) -> t
(** Build from a function of the multi-index, called once per cell in
    row-major order. *)

val of_array : int list -> float array -> t
(** Validates that the array length matches the extent product. *)

val num_elements : t -> int
val rank : t -> int

val flat_index : t -> int list -> int
(** Row-major flattening; raises [Invalid_argument] when out of bounds or
    on rank mismatch. *)

val get : t -> int list -> float
val set : t -> int list -> float -> unit
val get_flat : t -> int -> float
val set_flat : t -> int -> float -> unit

val in_bounds : t -> int list -> bool
val copy : t -> t
val fill : t -> float -> unit

val map2 : (float -> float -> float) -> t -> t -> t
(** Pointwise combination; extents must match. *)

val max_abs_diff : t -> t -> float
(** Largest absolute elementwise difference (for validation). *)

val pp : Format.formatter -> t -> unit

val slice : t -> origin:int list -> extent:int list -> t
(** Copy out a rectangular sub-tensor; raises [Invalid_argument] when the
    region exceeds the bounds. *)

val blit_region :
  src:t -> src_origin:int list -> dst:t -> dst_origin:int list -> extent:int list -> unit
(** Copy a rectangular region between tensors of equal rank. *)

val fingerprint : t -> Sf_support.Fingerprint.t
(** Content digest of extent and data (IEEE bit patterns), used to key
    simulation results on their input tensors. *)
