let update_weights ?(scale = 1.0) ?walk net ~weights ~nexts ~dest ~sources =
  let walk = match walk with Some w -> w | None -> Verify.walk net in
  Verify.iter_loads walk net ~nexts ~dest ~sources (fun c paths ->
      weights.(c) <- weights.(c) +. (scale *. float_of_int paths))

let tie_break_scale ~sources ~dests =
  let pairs = Array.length sources * Array.length dests in
  1.0 /. (4.0 *. float_of_int (max 1 pairs))
