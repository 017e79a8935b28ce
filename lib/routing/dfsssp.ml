module Network = Nue_netgraph.Network
module Graph_algo = Nue_netgraph.Graph_algo

let defaults ?dests ?sources net =
  ((match dests with Some d -> d | None -> Network.terminals net),
   match sources with Some s -> s | None -> Network.terminals net)

let compute_paths net ~dests ~sources =
  let weights = Array.make (Network.num_channels net) 1.0 in
  (* Loads act as tie-breakers between equal-hop paths: the paths stay
     (near-)minimal while spreading over parallel shortest routes, as
     OpenSM's SSSP engine does. *)
  let scale = Balance.tie_break_scale ~sources ~dests in
  let walk = Verify.walk net in
  (* Rounds capped at 8: within a round every destination sees the same
     frozen weights, so large rounds make equal-hop tie-breaking pile
     onto the same parallel paths instead of spreading. 8 keeps the
     balance quality ordering (dfsssp above up*/down* on the quality
     fixtures) while still exposing 8-way parallelism. *)
  Dest_batch.map ~max_round:8 ~label:"sssp.round" dests
    ~freeze:(fun () -> Array.copy weights)
    ~compute:(fun frozen dest ->
      fst (Graph_algo.dijkstra_to_dest net ~weights:frozen ~dest))
    ~commit:(fun dest nexts ->
      Balance.update_weights ~scale ~walk net ~weights ~nexts ~dest ~sources)

let paths_only ?dests ?sources net =
  let dests, sources = defaults ?dests ?sources net in
  let next_channel = compute_paths net ~dests ~sources in
  Table.make ~net ~algorithm:"sssp" ~dests ~next_channel ~vl:Table.All_zero
    ~num_vls:1 ()

let route_structured ?dests ?sources ?(max_vls = 8) net =
  let dests, sources = defaults ?dests ?sources net in
  let next_channel = compute_paths net ~dests ~sources in
  match
    Layers.assign net ~dests ~next_channel ~sources ~max_layers:max_vls ()
  with
  | None ->
    let needed = Layers.required_vcs net ~dests ~next_channel ~sources in
    Error (Engine_error.Vc_budget_exceeded { needed; available = max_vls })
  | Some { Layers.vl; layers_used } ->
      Ok
        (Table.make ~net ~algorithm:"dfsssp" ~dests ~next_channel
           ~vl:(Table.Per_pair vl) ~num_vls:layers_used
           ~info:[ ("required_vls", float_of_int layers_used) ]
           ())

let required_vcs ?dests ?sources net =
  let dests, sources = defaults ?dests ?sources net in
  let next_channel = compute_paths net ~dests ~sources in
  Layers.required_vcs net ~dests ~next_channel ~sources
