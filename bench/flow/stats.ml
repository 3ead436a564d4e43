(* Order statistics over samples. Quartiles replicate Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method,
   integer arithmetic and clamping included), so the spreads [--compare]
   prints match what an external checker computes from the same values. *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The i-th of the three quartile cut points ([i] in 1..3). *)
let quartile a i =
  let ld = Array.length a in
  if ld = 0 then nan
  else if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.

(* Nearest-rank percentile, for latency distributions with many samples. *)
let percentile xs p =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

type summary = { q1 : float; med : float; q3 : float }

let summary xs =
  let a = sorted_array xs in
  { q1 = quartile a 1; med = median xs; q3 = quartile a 3 }

(* Interquartile distance as a share of the median. *)
let spread s = if s.med = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.med
