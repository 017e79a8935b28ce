module Network = Nue_netgraph.Network
module Table = Nue_routing.Table

type t = {
  aggregate_gbs : float;
  per_terminal_gbs : float;
  gamma_max : float;
  bottleneck_channel : int;
}

(* The model over [loads], counted from [sources]. *)
let model ?sources ?(link_capacity_gbs = 4.0) (table : Table.t) loads =
  let sources =
    match sources with
    | Some s -> s
    | None -> Network.terminals table.Table.net
  in
  (* Include terminal channels: a terminal's injection link bounds its
     throughput exactly like any other channel. *)
  let gamma_max = ref 0 and bottleneck = ref (-1) in
  Array.iteri
    (fun c l ->
       if l > !gamma_max then begin
         gamma_max := l;
         bottleneck := c
       end)
    loads;
  let nsrc = Array.length sources in
  let ndest = Array.length table.Table.dests in
  let pairs = (nsrc * ndest) - Array.length table.Table.dests in
  if !gamma_max = 0 || pairs <= 0 then
    { aggregate_gbs = 0.0; per_terminal_gbs = 0.0; gamma_max = 0.0;
      bottleneck_channel = -1 }
  else begin
    let r = link_capacity_gbs /. float_of_int !gamma_max in
    { aggregate_gbs = r *. float_of_int pairs;
      per_terminal_gbs = r *. float_of_int (ndest - 1);
      gamma_max = float_of_int !gamma_max;
      bottleneck_channel = !bottleneck }
  end

let all_to_all ?sources ?link_capacity_gbs table =
  model ?sources ?link_capacity_gbs table
    (Forwarding_index.per_channel ?sources table)

let of_loads table loads = model table loads
