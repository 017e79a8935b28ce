module Network = Nue_netgraph.Network
module Verify = Nue_routing.Verify

type summary = {
  min : float;
  max : float;
  avg : float;
  sd : float;
}

let per_channel ?sources t = (Verify.stats ?sources t).Verify.loads

let of_loads net loads =
  let min_v = ref infinity and max_v = ref neg_infinity in
  let sum = ref 0.0 and sum2 = ref 0.0 and n = ref 0 in
  Array.iteri
    (fun c l ->
       if
         Network.is_switch net (Network.src net c)
         && Network.is_switch net (Network.dst net c)
       then begin
         let v = float_of_int l in
         if v < !min_v then min_v := v;
         if v > !max_v then max_v := v;
         sum := !sum +. v;
         sum2 := !sum2 +. (v *. v);
         incr n
       end)
    loads;
  if !n = 0 then { min = 0.0; max = 0.0; avg = 0.0; sd = 0.0 }
  else begin
    let nf = float_of_int !n in
    let avg = !sum /. nf in
    let var = (!sum2 /. nf) -. (avg *. avg) in
    { min = !min_v; max = !max_v; avg; sd = sqrt (Float.max 0.0 var) }
  end

let aggregate summaries =
  let n = float_of_int (List.length summaries) in
  if n = 0.0 then { min = 0.0; max = 0.0; avg = 0.0; sd = 0.0 }
  else begin
    let f sel = List.fold_left (fun acc s -> acc +. sel s) 0.0 summaries /. n in
    { min = f (fun s -> s.min);
      max = f (fun s -> s.max);
      avg = f (fun s -> s.avg);
      sd = f (fun s -> s.sd) }
  end
