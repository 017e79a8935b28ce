(* Tests for the flit-level simulator: delivery, conservation, credit
   discipline, deadlock detection and throughput sanity. *)

module Network = Nue_netgraph.Network
module Table = Nue_routing.Table
module Minhop = Nue_routing.Minhop
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Nue = Nue_core.Nue
module Prng = Nue_structures.Prng
module Obs = Nue_obs.Obs

let test_case = Alcotest.test_case

let two_terminals () =
  (* Two terminals on one switch: a single message crosses two links. *)
  Helpers.single_switch_pair ()

let single_message_delivery () =
  let net = two_terminals () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let out =
    Sim.run table ~traffic:[ { Traffic.src = terms.(0); dst = terms.(1); bytes = 512 } ]
  in
  Alcotest.(check int) "one packet" 1 out.Sim.total_packets;
  Alcotest.(check int) "delivered" 1 out.Sim.delivered_packets;
  Alcotest.(check int) "bytes" 512 out.Sim.delivered_bytes;
  Alcotest.(check bool) "no deadlock" false out.Sim.deadlock;
  (* 8 flits over 2 hops with latency 1: the tail lands well under 30
     cycles. *)
  Alcotest.(check bool) "fast" true (out.Sim.cycles < 30)

let message_split_into_mtu_packets () =
  let net = two_terminals () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let out =
    Sim.run table
      ~traffic:[ { Traffic.src = terms.(0); dst = terms.(1); bytes = 5000 } ]
  in
  (* 5000 B over a 2048 B MTU = 3 packets. *)
  Alcotest.(check int) "3 packets" 3 out.Sim.total_packets;
  Alcotest.(check int) "all delivered" 3 out.Sim.delivered_packets;
  Alcotest.(check int) "bytes conserved" 5000 out.Sim.delivered_bytes

let all_to_all_completes () =
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let table = Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:256 in
  let out = Sim.run table ~traffic in
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets;
  Alcotest.(check bool) "no deadlock" false out.Sim.deadlock;
  Alcotest.(check bool) "positive throughput" true (out.Sim.aggregate_gbs > 0.0)

let link_rate_bound () =
  (* A single sender cannot exceed one flit per cycle: aggregate <= one
     link's rate. *)
  let net = two_terminals () in
  let table = Minhop.route net in
  let terms = Network.terminals net in
  let out =
    Sim.run table
      ~traffic:[ { Traffic.src = terms.(0); dst = terms.(1); bytes = 64 * 1024 } ]
  in
  Alcotest.(check bool) "bounded by link rate" true
    (out.Sim.aggregate_gbs <= 4.0 +. 1e-6)

(* Clockwise ring routing on a 4-switch ring: every route turns the
   same way, so the channel dependency graph is one cycle. *)
let clockwise_ring () =
  let net = Helpers.ring ~terminals:1 4 in
  let terms = Network.terminals net in
  let nn = Network.num_nodes net in
  let next_channel =
    Array.map
      (fun dest ->
         let dw = Network.terminal_attachment net dest in
         let nexts = Array.make nn (-1) in
         for i = 0 to 3 do
           if i = dw then
             nexts.(i) <- Option.get (Network.find_channel net i dest)
           else
             nexts.(i) <-
               Option.get (Network.find_channel net i ((i + 1) mod 4))
         done;
         Array.iter
           (fun t ->
              if t <> dest then nexts.(t) <- (Network.out_channels net t).(0))
           terms;
         nexts)
      terms
  in
  ( net,
    Table.make ~net ~algorithm:"clockwise" ~dests:terms ~next_channel
      ~vl:Table.All_zero ~num_vls:1 () )

let deadlock_detected_on_cyclic_routing () =
  (* Clockwise ring routing with heavy traffic and tiny buffers: the
     classic ring deadlock. The watchdog must fire. *)
  let net, table = clockwise_ring () in
  Alcotest.(check bool) "routing is deadlock-prone" false
    (Nue_routing.Verify.deadlock_free table);
  let traffic = Traffic.all_to_all_shift net ~message_bytes:8192 in
  let config =
    { Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
  in
  let out = Sim.run ~config table ~traffic in
  Alcotest.(check bool) "deadlock detected" true out.Sim.deadlock;
  Alcotest.(check bool) "not everything delivered" true
    (out.Sim.delivered_packets < out.Sim.total_packets)

let nue_survives_where_cyclic_deadlocks () =
  (* Same network, same load, same buffers — Nue's tables drain. *)
  let net = Helpers.ring ~terminals:1 4 in
  let table = Nue.route ~vcs:1 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:8192 in
  let config =
    { Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
  in
  let out = Sim.run ~config table ~traffic in
  Alcotest.(check bool) "no deadlock" false out.Sim.deadlock;
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets

let traffic_all_to_all_counts () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let t = Network.num_terminals net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:128 in
  Alcotest.(check int) "T(T-1) messages" (t * (t - 1)) (List.length traffic);
  List.iter
    (fun { Traffic.src; dst; _ } ->
       if src = dst then Alcotest.fail "self message")
    traffic

let traffic_uniform_random_counts () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let prng = Prng.create 4 in
  let traffic =
    Traffic.uniform_random prng net ~messages_per_terminal:5 ~message_bytes:64
  in
  Alcotest.(check int) "count" (5 * Network.num_terminals net)
    (List.length traffic)

let traffic_permutation_bijective () =
  let net = (Helpers.small_torus ()).Nue_netgraph.Topology.net in
  let prng = Prng.create 4 in
  let traffic = Traffic.permutation prng net ~message_bytes:64 in
  let seen_src = Hashtbl.create 64 in
  List.iter
    (fun { Traffic.src; dst; _ } ->
       if src = dst then Alcotest.fail "fixed point";
       if Hashtbl.mem seen_src src then Alcotest.fail "duplicate source";
       Hashtbl.add seen_src src ())
    traffic

let rejects_non_terminal_endpoints () =
  let net = Helpers.ring5 () in
  let table = Minhop.route net in
  Alcotest.(check bool) "switch endpoint rejected" true
    (match
       Sim.run table ~traffic:[ { Traffic.src = 0; dst = 1; bytes = 64 } ]
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let rejects_route_off_its_channels () =
  (* A table whose next channel does not leave the node it is listed
     for has no path for that pair: [Table.path] stops at such a hop,
     as [Verify] does, so the simulator refuses the pair when it sets
     up. *)
  let net = two_terminals () in
  let good = Minhop.route net in
  let terms = Network.terminals net in
  let a = terms.(0) and b = terms.(1) in
  let next_channel = Array.map Array.copy good.Table.next_channel in
  let pos = Table.dest_position good b in
  next_channel.(pos).(a) <- (Network.in_channels net b).(0);
  let bad =
    Table.make ~net ~algorithm:"skip" ~dests:good.Table.dests ~next_channel
      ~vl:Table.All_zero ~num_vls:1 ()
  in
  Alcotest.check_raises "route must follow its channels"
    (Invalid_argument "Sim.run: unrouted source-destination pair")
    (fun () ->
       ignore (Sim.run bad ~traffic:[ { Traffic.src = a; dst = b; bytes = 64 } ]))

let more_vcs_do_not_hurt_much () =
  (* Sanity on the Fig. 1/10 trend at miniature scale: Nue's simulated
     all-to-all throughput at k=4 is at least ~60% of its k=1 value
     (usually it is better; small instances are noisy). *)
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:512 in
  let run vcs =
    let table = Nue.route ~vcs net in
    (Sim.run table ~traffic).Sim.aggregate_gbs
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool) "k=4 not catastrophically worse" true
    (t4 >= 0.6 *. t1);
  Alcotest.(check bool) "both positive" true (t1 > 0.0 && t4 > 0.0)

(* {1 Telemetry} *)

let telemetry_matches_plain_run () =
  (* The sink is observation-only: the outcome with telemetry attached
     is identical to the plain run's. *)
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let table = Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:256 in
  let plain = Sim.run table ~traffic in
  let out, _ = Sim.run_with_telemetry table ~traffic in
  Alcotest.(check int) "cycles" plain.Sim.cycles out.Sim.cycles;
  Alcotest.(check int) "delivered" plain.Sim.delivered_packets
    out.Sim.delivered_packets;
  Alcotest.(check (float 1e-9)) "p50" plain.Sim.latency_p50 out.Sim.latency_p50;
  Alcotest.(check (float 1e-9)) "p95" plain.Sim.latency_p95 out.Sim.latency_p95;
  Alcotest.(check (float 1e-9)) "p99" plain.Sim.latency_p99 out.Sim.latency_p99;
  Alcotest.(check (float 1e-9)) "max" plain.Sim.latency_max out.Sim.latency_max

let telemetry_sampling_and_utilization () =
  let t = Helpers.small_torus () in
  let net = t.Nue_netgraph.Topology.net in
  let table = Nue.route ~vcs:2 net in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:256 in
  let telemetry = { Sim.sample_every = 4; max_samples = 8; latency_bins = 16 } in
  let out, tm = Sim.run_with_telemetry ~telemetry table ~traffic in
  Alcotest.(check int) "cadence recorded" 4 tm.Sim.sample_every;
  Alcotest.(check bool) "ring filled" true (Array.length tm.Sim.samples <= 8);
  (* The run is much longer than 8 * 4 cycles, so the ring overflowed
     and only the most recent samples survive, in order. *)
  Alcotest.(check bool) "drops counted" true (tm.Sim.dropped_samples > 0);
  let rec chronological last = function
    | [] -> ()
    | (s : Sim.sample) :: rest ->
      Alcotest.(check bool) "samples in cycle order" true (s.Sim.at_cycle > last);
      chronological s.Sim.at_cycle rest
  in
  chronological (-1) (Array.to_list tm.Sim.samples);
  Array.iter
    (fun (s : Sim.sample) ->
       Alcotest.(check int) "per-channel occupancy vector"
         (Network.num_channels net)
         (Array.length s.Sim.link_occupancy);
       Array.iter
         (fun o -> Alcotest.(check bool) "occupancy >= 0" true (o >= 0))
         s.Sim.link_occupancy)
    tm.Sim.samples;
  (* Utilization: transmits / cycles, bounded by the link rate. *)
  Alcotest.(check int) "per-channel utilization vector"
    (Network.num_channels net)
    (Array.length tm.Sim.link_utilization);
  Array.iteri
    (fun c u ->
       Alcotest.(check bool) "utilization in [0,1]" true (u >= 0.0 && u <= 1.0);
       Alcotest.(check (float 1e-9)) "utilization = transmits/cycles"
         (float_of_int tm.Sim.link_transmits.(c)
          /. float_of_int out.Sim.cycles)
         u)
    tm.Sim.link_utilization;
  let peak = Array.fold_left max 0.0 tm.Sim.link_utilization in
  Alcotest.(check (float 1e-9)) "peak is the max" peak
    tm.Sim.peak_link_utilization;
  Alcotest.(check (float 1e-9)) "peak_link achieves it"
    tm.Sim.link_utilization.(tm.Sim.peak_link)
    tm.Sim.peak_link_utilization;
  (* Latency histogram covers every delivered packet, and the
     percentile chain is ordered. *)
  let module H = Nue_metrics.Histogram in
  Alcotest.(check int) "histogram counts deliveries"
    out.Sim.delivered_packets (H.count tm.Sim.latency);
  let p50 = H.percentile tm.Sim.latency 0.50 in
  let p95 = H.percentile tm.Sim.latency 0.95 in
  let p99 = H.percentile tm.Sim.latency 0.99 in
  Alcotest.(check bool) "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check (list (pair int int))) "no deadlock, no wait cycle" []
    tm.Sim.deadlock_wait_cycle

let deadlock_attributed_to_wait_cycle () =
  (* The clockwise-ring deadlock again, now asking the sink to name the
     circular wait: the blocked units must form a nonempty cycle of
     distinct (channel, VL) pairs over real channels. *)
  let net, table = clockwise_ring () in
  let traffic = Traffic.all_to_all_shift net ~message_bytes:8192 in
  let config =
    { Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
  in
  let out, tm = Sim.run_with_telemetry ~config table ~traffic in
  Alcotest.(check bool) "deadlock detected" true out.Sim.deadlock;
  let cycle = tm.Sim.deadlock_wait_cycle in
  Alcotest.(check bool) "wait cycle found" true (List.length cycle >= 2);
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (c, vl) ->
       Alcotest.(check bool) "real channel" true
         (c >= 0 && c < Network.num_channels net);
       Alcotest.(check int) "single-VL table blocks on VL 0" 0 vl;
       if Hashtbl.mem seen (c, vl) then Alcotest.fail "unit repeated";
       Hashtbl.add seen (c, vl) ())
    cycle;
  (* All four ring links participate in the classic ring deadlock. *)
  Alcotest.(check int) "all ring units blocked" 4 (List.length cycle)

(* A bad telemetry config is rejected before any simulation: the
   traffic here names a switch endpoint, which the run itself would
   reject with a different message. *)
let rejects_telemetry_field field telemetry () =
  let table = Minhop.route (Helpers.ring5 ()) in
  let traffic = [ { Traffic.src = 0; dst = 1; bytes = 64 } ] in
  let expect fn =
    Invalid_argument (Printf.sprintf "%s: %s must be >= 1" fn field)
  in
  Alcotest.check_raises "run_with_telemetry" (expect "Sim.run_with_telemetry")
    (fun () -> ignore (Sim.run_with_telemetry ~telemetry table ~traffic));
  Alcotest.check_raises "run_with_swaps" (expect "Sim.run_with_swaps")
    (fun () -> ignore (Sim.run_with_swaps ~telemetry table ~swaps:[] ~traffic))

let torus332 () =
  (Nue_netgraph.Topology.torus3d ~dims:(3, 3, 2) ~terminals_per_switch:1 ())
    .Nue_netgraph.Topology.net

let allocation_per_flit_hop () =
  (* Simulator state is flat: a run allocates per packet (its route),
     never per flit or per cycle. A throttled incast keeps most heads
     blocked for many cycles, so any per-cycle or per-flit allocation
     would dominate the count. *)
  let net = torus332 () in
  let table = Nue.route ~vcs:2 net in
  let traffic =
    Traffic.generate (Prng.create 5)
      (Traffic.Incast { victims = 2; messages_per_source = 2 })
      net ~message_bytes:2048
  in
  let config = { Sim.default_config with injection_rate = 0.25 } in
  let flit_hops =
    List.fold_left
      (fun acc { Traffic.src; dst; bytes } ->
         let flits = (bytes + config.Sim.flit_bytes - 1) / config.Sim.flit_bytes in
         let path = Option.get (Table.path table ~src ~dest:dst) in
         acc + (flits * List.length path))
      0 traffic
  in
  let before = Gc.minor_words () in
  let out = Sim.run ~config table ~traffic in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets;
  let per_hop = words /. float_of_int flit_hops in
  if per_hop > 4.0 then
    Alcotest.failf "%.1f minor words per flit-hop (limit 4)" per_hop

let arbitrations_follow_events () =
  (* Every channel arbitrates once at the start; after that, only a wake
     event lets a channel arbitrate again. Per flit transmit there are at
     most four: the sender stays awake, the flit becomes a head (at most
     once per switch it enters), its credit returns, and the token it
     spent, if injected, is refilled; each source's first refill is one
     more. This run makes about 8,700 arbitrations under a limit of
     16,144; a sweep that arbitrates every channel with queued work on
     every cycle makes 27,577 here. *)
  let net = torus332 () in
  let table = Nue.route ~vcs:2 net in
  let traffic =
    Traffic.generate (Prng.create 5)
      (Traffic.Incast { victims = 2; messages_per_source = 2 })
      net ~message_bytes:2048
  in
  let config = { Sim.default_config with injection_rate = 0.25 } in
  let was = Obs.enabled () in
  Obs.enable ();
  Obs.reset ();
  let out, snap =
    Fun.protect
      ~finally:(fun () -> if not was then Obs.disable ())
      (fun () ->
         let out = Sim.run ~config table ~traffic in
         (out, Obs.snapshot ()))
  in
  Alcotest.(check int) "all delivered" out.Sim.total_packets
    out.Sim.delivered_packets;
  let arbitrations = Obs.find snap "sim.arbitrations" in
  let transmits = Obs.find snap "sim.flit_transmits" in
  let channels = Network.num_channels net in
  let limit = (4 * transmits) + channels + Network.num_terminals net in
  if arbitrations < channels then
    Alcotest.failf "%d arbitrations counted for %d channels" arbitrations
      channels;
  if arbitrations > limit then
    Alcotest.failf "%d arbitrations for %d flit transmits (limit %d)"
      arbitrations transmits limit

(* {1 Golden digests}

   Every observable of a run — the outcome, every telemetry sample and
   accumulator, the latency histogram, the deadlock attribution and the
   swap records — folded into one MD5 per case. Any change to simulated
   behaviour shows up here as a digest mismatch; re-record only for a
   deliberate behaviour change. *)

let digest_run ((o : Sim.outcome), (tm : Sim.telemetry option), records) =
  let b = Buffer.create 4096 in
  let int i = Buffer.add_string b (string_of_int i); Buffer.add_char b ' ' in
  let flt f = Buffer.add_string b (Printf.sprintf "%h " f) in
  let ints a = Array.iter int a; Buffer.add_char b '|' in
  int o.Sim.delivered_packets;
  int o.Sim.total_packets;
  int o.Sim.delivered_bytes;
  int o.Sim.dropped_packets;
  int o.Sim.cycles;
  int (Bool.to_int o.Sim.deadlock);
  List.iter flt
    [ o.Sim.aggregate_gbs; o.Sim.avg_packet_latency; o.Sim.latency_p50;
      o.Sim.latency_p95; o.Sim.latency_p99; o.Sim.latency_max ];
  (match tm with
   | None -> Buffer.add_string b "no-telemetry"
   | Some t ->
     int t.Sim.sample_every;
     int t.Sim.dropped_samples;
     int t.Sim.vls;
     int t.Sim.occupancy_samples;
     Array.iter
       (fun (s : Sim.sample) ->
          int s.Sim.at_cycle;
          ints s.Sim.link_occupancy;
          ints s.Sim.vl_occupancy)
       t.Sim.samples;
     ints t.Sim.unit_occupancy_sum;
     ints t.Sim.unit_occupancy_peak;
     ints t.Sim.link_transmits;
     Array.iter flt t.Sim.link_utilization;
     flt t.Sim.peak_link_utilization;
     int t.Sim.peak_link;
     let module H = Nue_metrics.Histogram in
     int (H.count t.Sim.latency);
     List.iter flt
       [ H.mean t.Sim.latency; H.min_value t.Sim.latency;
         H.max_value t.Sim.latency ];
     Buffer.add_string b (H.render t.Sim.latency);
     List.iter (fun (c, vl) -> int c; int vl) t.Sim.deadlock_wait_cycle);
  List.iter
    (fun (r : Sim.swap_record) ->
       List.iter int
         [ r.Sim.swap_at; r.Sim.activated_at; r.Sim.in_flight_packets;
           r.Sim.in_flight_flits; r.Sim.drained_at ])
    records;
  Digest.to_hex (Digest.string (Buffer.contents b))

let golden_telemetry =
  { Sim.sample_every = 8; max_samples = 16; latency_bins = 16 }

let golden_runs () =
  let net = torus332 () in
  let table = Nue.route ~vcs:2 net in
  let case name ?(config = Sim.default_config) table spec ~message_bytes =
    let net = table.Table.net in
    let traffic = Traffic.generate (Prng.create 5) spec net ~message_bytes in
    let o, t =
      Sim.run_with_telemetry ~config ~telemetry:golden_telemetry table ~traffic
    in
    (name, digest_run (o, Some t, []))
  in
  let rate r = { Sim.default_config with injection_rate = r } in
  let zoo =
    List.concat_map
      (fun spec ->
         List.map
           (fun r ->
              case
                (Printf.sprintf "%s@%g" (Traffic.spec_name spec) r)
                ~config:(rate r) table spec ~message_bytes:512)
           [ 1.0; 0.25 ])
      Test_traffic.zoo
  in
  let swaps =
    let traffic =
      List.concat
        (List.init 4 (fun _ -> Traffic.all_to_all_shift net ~message_bytes:512))
    in
    let wide = Nue.route ~vcs:3 net in
    digest_run
      (Sim.run_with_swaps ~telemetry:golden_telemetry table
         ~swaps:
           [ { Sim.at_cycle = 120; table = wide; staged = false };
             { Sim.at_cycle = 500; table; staged = true } ]
         ~traffic)
  in
  let deadlock =
    let net, table = clockwise_ring () in
    let traffic = Traffic.all_to_all_shift net ~message_bytes:8192 in
    let config =
      { Sim.default_config with buffer_flits = 2; watchdog = 5_000 }
    in
    let o, t =
      Sim.run_with_telemetry ~config ~telemetry:golden_telemetry table ~traffic
    in
    digest_run (o, Some t, [])
  in
  let uniform = Traffic.Uniform { messages_per_terminal = 3 } in
  let incast = Traffic.Incast { victims = 2; messages_per_source = 3 } in
  (* Rates with no exact binary value. A bucket is only ever spent from
     exactly 1.0, so a rate's float sum matters below the cap: 0.3 reaches
     it on the fourth refill, as 0.25 does (the same digest as
     uniform@0.25), while ten refills of 0.1 sum to 0.9999999999999999
     and the bucket fills on the eleventh. *)
  let inexact =
    [ case "uniform@0.3" ~config:(rate 0.3) table uniform ~message_bytes:512;
      case "incast@0.1" ~config:(rate 0.1) table incast ~message_bytes:512 ]
  in
  (* Long wires over one- and two-flit buffers: most of a unit's credits
     are on the wire, so sends wait on credits that return late. *)
  let long_wires =
    List.map
      (fun b ->
         let config =
           { Sim.default_config with link_latency = 3; buffer_flits = b }
         in
         case (Printf.sprintf "uniform@1 latency 3 buffer %d" b) ~config table
           uniform ~message_bytes:512)
      [ 1; 2 ]
  in
  let faulty_random =
    let built =
      Helpers.random_built ~faults:(Nue_pipeline.Experiment.Link_failures 0.1) ()
    in
    let table = Nue.route ~vcs:1 built.Nue_pipeline.Experiment.net in
    List.map
      (fun r ->
         case (Printf.sprintf "faulty random vcs 1 uniform@%g" r)
           ~config:(rate r) table uniform ~message_bytes:512)
      [ 1.0; 0.3 ]
  in
  (* A 4-ary 3-tree carrying one short permutation at a trickle: nearly
     every channel is idle on nearly every cycle. *)
  let idle_tree =
    let net = Nue_netgraph.Topology.kary_ntree ~k:4 ~n:3 ~terminals_per_leaf:2 () in
    case "idle 4-ary 3-tree permutation@0.07" ~config:(rate 0.07)
      (Nue.route ~vcs:2 net) Traffic.Random_permutation ~message_bytes:128
  in
  (* A swap to a table that routes only half the terminals: packets to
     the rest are dropped at injection until a staged swap restores the
     full table. *)
  let drops =
    let traffic =
      List.concat
        (List.init 2 (fun _ -> Traffic.all_to_all_shift net ~message_bytes:512))
    in
    let terms = Network.terminals net in
    let half =
      Nue.route ~dests:(Array.sub terms 0 (Array.length terms / 2)) ~vcs:2 net
    in
    digest_run
      (Sim.run_with_swaps ~telemetry:golden_telemetry table
         ~swaps:
           [ { Sim.at_cycle = 50; table = half; staged = false };
             { Sim.at_cycle = 400; table; staged = true } ]
         ~traffic)
  in
  zoo
  @ [ ("swaps", swaps); ("ring-deadlock", deadlock) ]
  @ inexact @ long_wires @ faulty_random @ [ idle_tree; ("drops", drops) ]

let golden_digests =
  [ ("shift@1", "f3974f86adc79b6d5364d44106d50aea");
    ("shift@0.25", "7d64bb1be73d4a765a449b0c85833e23");
    ("uniform@1", "9414f30366c8e138ef15bee8cb986715");
    ("uniform@0.25", "aed897b554fa62e4e9bd8c757ba7b391");
    ("bursty@1", "c21d882db4c962cbf8eae3682ae9405e");
    ("bursty@0.25", "ab80fb6d7f93ef250468ece52412c22b");
    ("hotspot@1", "8a6ab633e8a44674467a230ecdcfb40a");
    ("hotspot@0.25", "28a2d9761b4c19f5610f397efda3491c");
    ("incast@1", "89f71d85944e5080ba00022990a1c3fa");
    ("incast@0.25", "11b5ac92e46176b04f31c03751cdd554");
    ("adversarial@1", "6e5c28ca4faa6f26a5d36c8873af624d");
    ("adversarial@0.25", "ac04dfcfa3e203b827f44fd039096575");
    ("tornado@1", "817a78d5264738fe68bcbf918b31611c");
    ("tornado@0.25", "947d2dfaf10c34bfde8ea3fd1bacf7b2");
    ("transpose@1", "8dc83f293caf048f0a6c4484509a58db");
    ("transpose@0.25", "ad23d49d32de7691b3528b9e12ccddc8");
    ("bitcomp@1", "fc2215e229af8179e860e48f4826728a");
    ("bitcomp@0.25", "393ff69e7e16bc0a5ca6e4299e71d492");
    ("bitrev@1", "79d7f98bb4bbedd7b8f4adc05b7c3dcc");
    ("bitrev@0.25", "df948009701cbe748647849af37f18b3");
    ("permutation@1", "8318678d98cc00f56273de1873547b61");
    ("permutation@0.25", "6d6d849e402c749bf3bd08ffd0fe1c70");
    ("swaps", "10e1b927a6bbd624dc81a6653cdeecd4");
    ("ring-deadlock", "41ef7c30e2e7bc561565f77c6573ab4e");
    ("uniform@0.3", "aed897b554fa62e4e9bd8c757ba7b391");
    ("incast@0.1", "13b767617f770796e09558e8c8bcb504");
    ("uniform@1 latency 3 buffer 1", "95b9fdf3709636c9a460002fb1e0544c");
    ("uniform@1 latency 3 buffer 2", "b15b48a11ed9d75ce35523620614b562");
    ("faulty random vcs 1 uniform@1", "4880a6fbd809118a44585a8df179674f");
    ("faulty random vcs 1 uniform@0.3", "f5570ab0e907da0101f5d8452399c314");
    ("idle 4-ary 3-tree permutation@0.07", "f3a4918b1932d8b446afe494d679b253");
    ("drops", "1734576e1cb6f53bf97216a5f10ebac2") ]

let golden_digests_match () =
  Alcotest.(check (list (pair string string)))
    "outcome + telemetry digests" golden_digests (golden_runs ())

let suite =
  [ ("traffic",
     [ test_case "all-to-all counts" `Quick traffic_all_to_all_counts;
       test_case "uniform random counts" `Quick traffic_uniform_random_counts;
       test_case "permutation bijective" `Quick traffic_permutation_bijective ]);
    ("sim",
     [ test_case "single message" `Quick single_message_delivery;
       test_case "MTU split" `Quick message_split_into_mtu_packets;
       test_case "all-to-all completes" `Slow all_to_all_completes;
       test_case "link rate bound" `Quick link_rate_bound;
       test_case "deadlock detected" `Quick deadlock_detected_on_cyclic_routing;
       test_case "nue survives same load" `Quick nue_survives_where_cyclic_deadlocks;
       test_case "rejects non-terminal endpoints" `Quick
         rejects_non_terminal_endpoints;
       test_case "rejects a route off its channels" `Quick
         rejects_route_off_its_channels;
       test_case "VC trend sanity" `Slow more_vcs_do_not_hurt_much;
       test_case "allocation per flit-hop" `Quick allocation_per_flit_hop;
       test_case "arbitrations follow events" `Quick
         arbitrations_follow_events ]);
    ("sim:telemetry",
     [ test_case "observation-only" `Slow telemetry_matches_plain_run;
       test_case "sampling and utilization" `Slow
         telemetry_sampling_and_utilization;
       test_case "deadlock attribution" `Quick
         deadlock_attributed_to_wait_cycle;
       test_case "rejects sample_every < 1" `Quick
         (rejects_telemetry_field "sample_every"
            { Sim.default_telemetry with sample_every = 0 });
       test_case "rejects max_samples < 1" `Quick
         (rejects_telemetry_field "max_samples"
            { Sim.default_telemetry with max_samples = 0 });
       test_case "rejects latency_bins < 1" `Quick
         (rejects_telemetry_field "latency_bins"
            { Sim.default_telemetry with latency_bins = 0 }) ]);
    ("sim:golden",
     [ test_case "outcome and telemetry digests" `Quick golden_digests_match ]) ]
