(* Order statistics for the benchmark's medians and spreads. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* Linear-interpolation percentile (p in [0, 100]) of a sample. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile 50.0 xs

(* First and third quartiles exactly as Python's
   [statistics.quantiles(data, n=4)] (the "exclusive" method) computes
   them, so calibration spreads agree with a Python analysis of the same
   numbers. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then
    let x = if ld = 1 then a.(0) else Float.nan in
    (x, x)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
  end
