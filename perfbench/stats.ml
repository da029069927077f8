(* Order statistics for the benchmark's reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A tail percentile is only reported when at least this many samples lie
   beyond it; with fewer it is the maximum of a handful of points. *)
let min_beyond = 10

(* Nearest-rank [q]-quantile ([0 < q < 1]), or [None] when fewer than
   {!min_beyond} samples lie above its rank. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))) in
  if n = 0 || n - rank < min_beyond then None else Some a.(rank - 1)

(* Checks on the helpers above, run at the start of every benchmark run;
   returns the failures. *)
let self_check () =
  let ints n = List.init n (fun i -> float_of_int (i + 1)) in
  let expect name got want = if got = want then [] else [ name ] in
  List.concat
    [ expect "median odd" (median [ 3.0; 1.0; 2.0 ]) 2.0;
      expect "median even" (median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5;
      expect "p99 of 1000 keeps 10 beyond" (percentile 0.99 (ints 1000)) (Some 990.0);
      expect "p99 of 999 is withheld" (percentile 0.99 (ints 999)) None;
      expect "p50 of 21" (percentile 0.5 (ints 21)) (Some 11.0);
      expect "p50 of 19 is withheld" (percentile 0.5 (ints 19)) None;
      expect "empty" (percentile 0.5 []) None ]
