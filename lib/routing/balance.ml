module Network = Nue_netgraph.Network

(* Add one per crossing path to [loads.(c)]. *)
let add_loads loads net ~nexts ~dest ~sources =
  let n = Network.num_nodes net in
  for i = 0 to Array.length sources - 1 do
    let src = sources.(i) in
    if src <> dest then begin
      let node = ref src and hops = ref 0 in
      while !node <> dest && !hops <= n && nexts.(!node) >= 0 do
        let c = nexts.(!node) in
        loads.(c) <- loads.(c) + 1;
        node := Network.dst net c;
        incr hops
      done
    end
  done

let channel_loads net ~nexts ~dest ~sources =
  let loads = Array.make (Network.num_channels net) 0 in
  add_loads loads net ~nexts ~dest ~sources;
  loads

let update_weights ?(scale = 1.0) ?loads net ~weights ~nexts ~dest ~sources =
  let loads =
    match loads with
    | Some l -> l
    | None -> Array.make (Network.num_channels net) 0
  in
  add_loads loads net ~nexts ~dest ~sources;
  for c = 0 to Array.length loads - 1 do
    let l = loads.(c) in
    if l > 0 then begin
      weights.(c) <- weights.(c) +. (scale *. float_of_int l);
      loads.(c) <- 0
    end
  done

let tie_break_scale ~sources ~dests =
  let pairs = Array.length sources * Array.length dests in
  1.0 /. (4.0 *. float_of_int (max 1 pairs))
