(* Order statistics over host-time samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Sample.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile [p] (0 < p < 100), returned only when at
   least [min_beyond] samples lie strictly above its rank: a tail
   percentile read from fewer samples is noise, not a measurement. *)
let percentile ?(min_beyond = 10) p xs =
  if p <= 0. || p >= 100. then invalid_arg "Sample.percentile: p";
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let rank = max 1 rank in
  if n = 0 || n - rank < min_beyond then None else Some a.(rank - 1)

let sum = List.fold_left ( +. ) 0.
