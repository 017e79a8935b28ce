module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo

let defaults ?dests ?sources net =
  ((match dests with Some d -> d | None -> Network.terminals net),
   match sources with Some s -> s | None -> Network.terminals net)

(* One destination at a time on the live weights: each Dijkstra sees the
   loads of every destination routed before it. The loads act as
   tie-breakers between equal-hop paths, so the paths stay (near-)minimal
   while spreading over parallel shortest routes, as OpenSM's SSSP
   engine does. *)
let compute_paths net ~dests ~sources =
  let weights = Array.make (Network.num_channels net) 1.0 in
  let scale = Balance.tie_break_scale ~sources ~dests in
  let walk = Verify.walk net in
  (* [Array.init] applies its function in index order. *)
  Array.init (Array.length dests) (fun i ->
      let dest = dests.(i) in
      let nexts, _ = Graph_algo.dijkstra_to_dest net ~weights ~dest in
      Balance.update_weights ~scale ~walk net ~weights ~nexts ~dest ~sources;
      nexts)

let paths_only ?dests ?sources net =
  let dests, sources = defaults ?dests ?sources net in
  let next_channel = compute_paths net ~dests ~sources in
  Table.make ~net ~algorithm:"sssp" ~dests ~next_channel ~vl:Table.All_zero
    ~num_vls:1 ()

let route_structured ?dests ?sources ?(max_vls = 8) net =
  let dests, sources = defaults ?dests ?sources net in
  let next_channel = compute_paths net ~dests ~sources in
  let { Layers.vl; layers_used } =
    Layers.assign net ~dests ~next_channel ~sources
  in
  if layers_used > max_vls then
    Error
      (Engine_error.Vc_budget_exceeded
         { needed = layers_used; available = max_vls })
  else
    Ok
      (Table.make ~net ~algorithm:"dfsssp" ~dests ~next_channel
         ~vl:(Table.Per_pair vl) ~num_vls:layers_used
         ~info:[ ("required_vls", float_of_int layers_used) ]
         ())

let required_vcs ?dests ?sources net =
  match route_structured ?dests ?sources ~max_vls:max_int net with
  | Ok t -> t.Table.num_vls
  | Error _ -> assert false (* no budget is below max_int *)
