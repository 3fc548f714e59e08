(* Order statistics the harness does not already have ([percentile] is
   [Harness.Service_bench]'s, [geomean] and [mean] are [Harness.Runner]'s);
   [--smoke] checks them all against fixed inputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The three cut points of Python's [statistics.quantiles xs ~n:4] (the
   default 'exclusive' method), so calibration spreads match the ones an
   external checker computes from the same values. Needs two samples. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = n + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0)
    [ 1; 2; 3 ]

(* Interquartile range as a share of the median. *)
let iqr_share xs =
  match quartiles xs with
  | [ q1; q2; q3 ] -> if q2 = 0.0 then 0.0 else (q3 -. q1) /. abs_float q2
  | _ -> assert false
