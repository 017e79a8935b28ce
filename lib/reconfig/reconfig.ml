module Network = Nue_netgraph.Network
module Fault = Nue_netgraph.Fault
module Graph_algo = Nue_netgraph.Graph_algo
module Digraph = Nue_cdg.Digraph
module Complete_cdg = Nue_cdg.Complete_cdg
module Escape = Nue_core.Escape
module Rootsel = Nue_core.Rootsel
module Nue_dijkstra = Nue_core.Nue_dijkstra
module Table = Nue_routing.Table
module Verify = Nue_routing.Verify
module Engine = Nue_routing.Engine
module Engine_error = Nue_routing.Engine_error
module Sim = Nue_sim.Sim
module Traffic = Nue_sim.Traffic
module Json = Nue_pipeline.Json

(* Engines registered via library init; Nue itself registers one layer
   up — force it so [init ~engine:"nue"] works without the caller
   linking the pipeline for its side effect. *)
let () = Nue_core.Nue_engine.ensure_registered ()

type state = {
  base : Network.t;
  remap : Fault.remap;
  table : Table.t;
  engine : string;
  vcs : int;
  seed : int;
}

(* {1 Lifting} *)

let lift ~base (remap : Fault.remap) (table : Table.t) =
  let dnet = remap.net in
  if table.net != dnet then
    invalid_arg "Reconfig.lift: table is not on the remap's network";
  if Array.exists (fun o -> o < 0) remap.of_old then
    invalid_arg
      "Reconfig.lift: remap removed nodes (only link faults are liftable)";
  let chan_map = Fault.base_channels ~base remap in
  let next_channel =
    Array.map
      (Array.map (fun c -> if c < 0 then -1 else chan_map.(c)))
      table.next_channel
  in
  let vl =
    match table.vl with
    | Table.All_zero -> Table.All_zero
    | Table.Per_dest a -> Table.Per_dest (Array.copy a)
    | Table.Per_pair a -> Table.Per_pair (Array.map Array.copy a)
    | Table.Per_hop _ ->
      invalid_arg
        "Reconfig.lift: Per_hop VL assignments close over degraded channel \
         ids and cannot be lifted"
  in
  Table.make ~net:base ~algorithm:table.algorithm ~dests:(Array.copy table.dests)
    ~next_channel ~vl ~num_vls:table.num_vls ~info:table.info ()

(* {1 Init} *)

let route_lifted ~engine ~vcs ~seed ~base (remap : Fault.remap) ?dests () =
  let spec = Engine.spec ~vcs ~seed ?dests remap.net in
  match Engine.route engine spec with
  | Error e -> Error (Engine_error.to_string e)
  | Ok table ->
    (match lift ~base remap table with
     | t -> Ok t
     | exception Invalid_argument msg -> Error msg)

let init ?(engine = "nue") ?(vcs = 4) ?(seed = 1) base =
  let remap = Fault.identity base in
  match route_lifted ~engine ~vcs ~seed ~base remap () with
  | Error _ as e -> e
  | Ok table -> Ok { base; remap; table; engine; vcs; seed }

(* {1 Affected destinations} *)

type reroute_kind =
  | Incremental
  | Full

type step = {
  event : Event.t;
  affected : int array;
  affected_fraction : float;
  kind : reroute_kind;
  verdict : Transition.verdict;
  seconds : float;
  table : Table.t;
}

let row_incomplete (table : Table.t) pos d =
  let row = table.next_channel.(pos) in
  let bad = ref false in
  Array.iteri (fun node c -> if node <> d && c < 0 then bad := true) row;
  !bad

let affected_dests (state : state) event =
  let table = state.table in
  let base = state.base in
  let out = ref [] in
  (match event with
   | Event.Fail (u, v) ->
     (* Any dest whose rows use any channel between u and v (either
        orientation, any parallel copy) may lose its route. *)
     let nc = Network.num_channels base in
     let touches = Array.make nc false in
     for c = 0 to nc - 1 do
       let s = Network.src base c and d = Network.dst base c in
       if (s = u && d = v) || (s = v && d = u) then touches.(c) <- true
     done;
     for pos = Array.length table.dests - 1 downto 0 do
       let row = table.next_channel.(pos) in
       let hit = ref false in
       Array.iter (fun c -> if c >= 0 && touches.(c) then hit := true) row;
       if !hit then out := table.dests.(pos) :: !out
     done
   | Event.Repair (u, v) ->
     (* The restored link can only improve a route to d if it bridges a
        distance gap: |dist(u,d) - dist(v,d)| >= 2 on the pre-event
        network. Destinations with incomplete rows are always affected
        (the repair may reconnect them). *)
     let net = state.remap.Fault.net in
     let du = Graph_algo.bfs_distances net u
     and dv = Graph_algo.bfs_distances net v in
     for pos = Array.length table.dests - 1 downto 0 do
       let d = table.dests.(pos) in
       let gap =
         if du.(d) = max_int || dv.(d) = max_int then max_int
         else abs (du.(d) - dv.(d))
       in
       if gap >= 2 || row_incomplete table pos d then
         out := d :: !out
     done);
  Array.of_list !out

(* {1 Apply} *)

(* "+incremental" marks a table produced by a partial reroute; applied
   once, even across repeated incremental steps. *)
let mark_incremental alg =
  let suffix = "+incremental" in
  let n = String.length alg and k = String.length suffix in
  if n >= k && String.sub alg (n - k) k = suffix then alg else alg ^ suffix

(* Channel-dependency edges induced by one destination's routing tree:
   for every node s routing to d via channel c, the packet continues on
   the next hop's channel, so (c -> row.(dst c)) is a dependency. *)
let dest_deps (table : Table.t) pos d =
  let row = table.next_channel.(pos) in
  let net = table.net in
  let deps = ref [] in
  Array.iteri
    (fun s c ->
       if s <> d && c >= 0 then begin
         let t = Network.dst net c in
         if t <> d then begin
           let c2 = row.(t) in
           if c2 >= 0 then deps := (c, c2) :: !deps
         end
       end)
    row;
  !deps

let simple_vl_of (t : Table.t) pos =
  match t.vl with
  | Table.All_zero -> Some 0
  | Table.Per_dest a -> Some a.(pos)
  | Table.Per_pair _ | Table.Per_hop _ -> None

(* True incremental Nue (the paper's Section 4 machinery applied
   online): rebuild each touched virtual layer's complete CDG on the
   degraded network, replay the dependencies of the layer's surviving
   destination trees into it via Algorithm 3, and run the
   CDG-constrained Dijkstra for just the affected destinations inside
   that orientation. Every new tree is admitted edge-by-edge, so the
   merged layer stays acyclic by construction; the attempt aborts (and
   the caller falls back) if a surviving dependency is refused — which
   can only happen when the fresh escape tree's own dependencies
   conflict with the old orientation. *)
exception Infeasible

let nue_incremental (state : state) (remap : Fault.remap) affected =
  let old_t = state.table in
  match old_t.vl with
  | Table.All_zero | Table.Per_pair _ | Table.Per_hop _ -> None
  | Table.Per_dest layer_of_pos ->
    let dnet = remap.Fault.net in
    if Network.num_nodes dnet <> Network.num_nodes state.base then None
    else begin
      try
        let d2b = Fault.base_channels ~base:state.base remap in
        let b2d = Array.make (Network.num_channels state.base) (-1) in
        Array.iteri (fun dch bch -> b2d.(bch) <- dch) d2b;
        let is_affected = Array.make (Network.num_nodes state.base) false in
        Array.iter (fun d -> is_affected.(d) <- true) affected;
        let num_vls = old_t.num_vls in
        let aff_by_layer = Array.make num_vls [] in
        Array.iter
          (fun d ->
             let pos = Table.dest_position old_t d in
             if pos < 0 then raise Infeasible;
             let vl = layer_of_pos.(pos) in
             aff_by_layer.(vl) <- d :: aff_by_layer.(vl))
          affected;
        let next_channel = Array.map Array.copy old_t.next_channel in
        (* One search scratch for every destination rerouted here. *)
        let scratch = Nue_dijkstra.create_scratch dnet in
        for vl = 0 to num_vls - 1 do
          match aff_by_layer.(vl) with
          | [] -> ()
          | layer_affected ->
            let subset = Array.of_list (List.rev layer_affected) in
            (* Replay happens on a pristine CDG, so the old layer's
               (acyclic) dependencies are always admitted; a refusal
               means the tables diverged from the state and the whole
               attempt is off. *)
            let replay cdg =
              Array.iteri
                (fun pos d ->
                   if layer_of_pos.(pos) = vl && not is_affected.(d) then
                     List.iter
                       (fun (a, b) ->
                          let a = b2d.(a) and b = b2d.(b) in
                          if
                            a < 0 || b < 0
                            || not (Complete_cdg.is_edge cdg ~from:a ~to_:b)
                            || not
                                 (Complete_cdg.try_use_edge cdg ~from:a ~to_:b)
                          then raise Infeasible)
                       (dest_deps old_t pos d))
                old_t.dests
            in
            (* The escape tree's own dependencies must coexist with the
               replayed orientation, which depends on the root; retry a
               few candidates before giving up on the layer. *)
            let attempt root =
              let cdg = Complete_cdg.create dnet in
              replay cdg;
              match Escape.prepare_into cdg ~root ~dests:subset with
              | None -> false
              | Some escape ->
                let weights = Array.make (Network.num_channels dnet) 1.0 in
                let stats = Nue_dijkstra.fresh_stats () in
                Array.iter
                  (fun d ->
                     let next =
                       Nue_dijkstra.route_destination cdg ~escape ~weights
                         ~dest:d ~scratch ~stats ()
                     in
                     let pos = Table.dest_position old_t d in
                     next_channel.(pos) <-
                       Array.map (fun c -> if c < 0 then -1 else d2b.(c)) next)
                  subset;
                true
            in
            let attach d =
              if Network.is_switch dnet d then d
              else Network.terminal_attachment dnet d
            in
            let candidates =
              let rec dedup seen = function
                | [] -> []
                | r :: rest ->
                  if List.mem r seen then dedup seen rest
                  else r :: dedup (r :: seen) rest
              in
              let switches =
                List.filter
                  (Network.is_switch dnet)
                  (List.init (Network.num_nodes dnet) Fun.id)
              in
              let all =
                Rootsel.choose dnet ~dests:subset
                :: (List.map attach (Array.to_list subset) @ switches)
              in
              List.filteri (fun i _ -> i < 12) (dedup [] all)
            in
            if not (List.exists attempt candidates) then raise Infeasible
        done;
        Some
          (Table.make ~net:state.base
             ~algorithm:(mark_incremental old_t.algorithm)
             ~dests:(Array.copy old_t.dests) ~next_channel
             ~vl:(Table.Per_dest (Array.copy layer_of_pos)) ~num_vls
             ~info:old_t.info ())
      with Infeasible -> None
    end

(* VL-aware merge. The fresh table was routed in isolation, so its layer
   orientations know nothing about the old table's; unioning the two per
   VL is almost always cyclic. Instead keep the old per-dest VL
   assignment fixed, seed one dependency graph per VL with the
   unaffected destinations' trees, and place each fresh destination into
   a VL that keeps that layer acyclic — its old VL first, then the rest.
   [None] when some destination fits nowhere or a table's VL form is not
   per-dest. *)
let vl_aware_merge ~(old_t : Table.t) ~(fresh : Table.t) =
  let simple (t : Table.t) =
    match t.vl with
    | Table.All_zero | Table.Per_dest _ -> true
    | Table.Per_pair _ | Table.Per_hop _ -> false
  in
  if not (simple old_t && simple fresh) then None
  else begin
    let dests = old_t.dests in
    let num_vls = max old_t.num_vls fresh.num_vls in
    let nc = Network.num_channels old_t.net in
    let layers = Array.init num_vls (fun _ -> Digraph.create nc) in
    (* Seed with the surviving old trees. *)
    Array.iteri
      (fun pos d ->
         if Table.dest_position fresh d = -1 then
           List.iter
             (fun (a, b) ->
                Digraph.add_edge layers.(Option.get (simple_vl_of old_t pos)) a b)
             (dest_deps old_t pos d))
      dests;
    let vl_out = Array.make (Array.length dests) 0 in
    Array.iteri
      (fun pos d ->
         if Table.dest_position fresh d = -1 then
           vl_out.(pos) <- Option.get (simple_vl_of old_t pos))
      dests;
    let place pos d fp =
      let deps = dest_deps fresh fp d in
      let try_vl vl =
        let g = layers.(vl) in
        List.iter (fun (a, b) -> Digraph.add_edge g a b) deps;
        if Digraph.is_acyclic g then true
        else begin
          List.iter (fun (a, b) -> Digraph.remove_edge g a b) deps;
          false
        end
      in
      let preferred = Option.get (simple_vl_of old_t pos) in
      let order =
        preferred
        :: List.filter (( <> ) preferred) (List.init num_vls Fun.id)
      in
      match List.find_opt try_vl order with
      | Some vl ->
        vl_out.(pos) <- vl;
        true
      | None -> false
    in
    let ok = ref true in
    Array.iteri
      (fun pos d ->
         if !ok then
           match Table.dest_position fresh d with
           | -1 -> ()
           | fp -> if not (place pos d fp) then ok := false)
      dests;
    if not !ok then None
    else begin
      let next_channel =
        Array.mapi
          (fun pos d ->
             match Table.dest_position fresh d with
             | -1 -> Array.copy old_t.next_channel.(pos)
             | fp -> Array.copy fresh.next_channel.(fp))
          dests
      in
      Some
        (Table.make ~net:old_t.net
           ~algorithm:(mark_incremental old_t.algorithm)
           ~dests:(Array.copy dests) ~next_channel
           ~vl:(Table.Per_dest vl_out) ~num_vls ~info:fresh.info ())
    end
  end

(* Merge [fresh] (routed for [affected] only) over [old_t]: affected
   destinations take their new rows and VLs, everything else keeps the
   old ones. Both tables are on [base]. *)
let merge_tables ~(old_t : Table.t) ~(fresh : Table.t) =
  let dests = old_t.dests in
  let num_vls = max old_t.num_vls fresh.num_vls in
  let n = Array.length old_t.next_channel.(0) in
  let next_channel =
    Array.mapi
      (fun pos d ->
         match Table.dest_position fresh d with
         | -1 -> Array.copy old_t.next_channel.(pos)
         | fp -> Array.copy fresh.next_channel.(fp))
      dests
  in
  (* Normalize both VL assignments to a comparable concrete form. *)
  let per_pair_of (t : Table.t) pos =
    match t.vl with
    | Table.All_zero -> Array.make n 0
    | Table.Per_dest a -> Array.make n a.(pos)
    | Table.Per_pair a -> Array.copy a.(pos)
    | Table.Per_hop _ -> assert false (* lift already rejected Per_hop *)
  in
  let vl_for pos d =
    match Table.dest_position fresh d with
    | -1 -> `Old pos
    | fp -> `Fresh fp
  in
  let simple =
    match (old_t.vl, fresh.vl) with
    | (Table.All_zero | Table.Per_dest _), (Table.All_zero | Table.Per_dest _)
      -> true
    | _ -> false
  in
  let vl =
    if simple then
      Table.Per_dest
        (Array.mapi
           (fun pos d ->
              match vl_for pos d with
              | `Old p -> Option.get (simple_vl_of old_t p)
              | `Fresh p -> Option.get (simple_vl_of fresh p))
           dests)
    else
      Table.Per_pair
        (Array.mapi
           (fun pos d ->
              match vl_for pos d with
              | `Old p -> per_pair_of old_t p
              | `Fresh p -> per_pair_of fresh p)
           dests)
  in
  Table.make ~net:old_t.net
    ~algorithm:(mark_incremental old_t.algorithm)
    ~dests:(Array.copy dests) ~next_channel ~vl ~num_vls ~info:fresh.info ()

let table_valid table =
  let report = Verify.check table in
  report.Verify.connected && report.Verify.cycle_free
  && report.Verify.deadlock_free

(* The cut links after [event]: the remap's, with one copy of the pair
   added or taken back. *)
let cut_after (state : state) event =
  let cut = snd (Fault.removed state.base state.remap) in
  match event with
  | Event.Fail (u, v) -> Ok ((u, v) :: cut)
  | Event.Repair (u, v) ->
    (match List.partition (( = ) (min u v, max u v)) cut with
     | _ :: again, rest -> Ok (again @ rest)
     | [], _ ->
       Error
         (Printf.sprintf "repair of a link that is not failed: %d -- %d" u v))

let apply ?(threshold = 0.5) (state : state) event =
  let t0 = Sys.time () in
  match cut_after state event with
  | Error _ as e -> e
  | Ok cut ->
    (match Fault.remove_links state.base cut with
     | exception Invalid_argument msg ->
       Error (Printf.sprintf "%s: %s" (Event.to_string event) msg)
     | remap ->
       let affected = affected_dests state event in
       let routed = max 1 (Array.length state.table.dests) in
       let affected_fraction =
         float_of_int (Array.length affected) /. float_of_int routed
       in
       let reroute ?dests () =
         route_lifted ~engine:state.engine ~vcs:state.vcs ~seed:state.seed
           ~base:state.base remap ?dests ()
       in
       let generic_incremental () =
         match reroute ~dests:affected () with
         | Error _ -> None
         | Ok fresh ->
           (match vl_aware_merge ~old_t:state.table ~fresh with
            | Some merged when table_valid merged -> Some merged
            | _ ->
              let merged = merge_tables ~old_t:state.table ~fresh in
              if table_valid merged then Some merged else None)
       in
       let incremental () =
         if Array.length affected = 0 then Some state.table
         else begin
           let by_core =
             if state.engine = "nue" then nue_incremental state remap affected
             else None
           in
           match by_core with
           | Some merged when table_valid merged -> Some merged
           | _ -> generic_incremental ()
         end
       in
       let result =
         if affected_fraction <= threshold then
           match incremental () with
           | Some t -> Ok (Incremental, t)
           | None ->
             (* Merged table failed validation (or partial routing
                failed): fall back to a full reroute. *)
             Result.map (fun t -> (Full, t)) (reroute ())
         else Result.map (fun t -> (Full, t)) (reroute ())
       in
       (match result with
        | Error _ as e -> e
        | Ok (kind, table) ->
          let verdict =
            Transition.verify ~old_table:state.table ~new_table:table
          in
          let seconds = Sys.time () -. t0 in
          let step =
            { event; affected; affected_fraction; kind; verdict; seconds;
              table }
          in
          Ok ({ state with remap; table }, step)))

let plan ?threshold state events =
  let rec go state acc i = function
    | [] -> Ok (state, List.rev acc)
    | e :: rest ->
      (match apply ?threshold state e with
       | Error msg -> Error (Printf.sprintf "event %d (%s): %s" i (Event.to_string e) msg)
       | Ok (state, step) -> go state (step :: acc) (i + 1) rest)
  in
  go state [] 0 events

(* {1 Churn simulation} *)

type churn = {
  steps : step list;
  outcome : Sim.outcome;
  telemetry : Sim.telemetry option;
  swap_records : Sim.swap_record list;
  plan_seconds : float;
}

let simulate_churn ?threshold ?config ?telemetry ?(interval = 2000)
    ?(warmup = 1000) ?(message_bytes = 2048) (state : state) events =
  if interval < 1 then invalid_arg "Reconfig.simulate_churn: interval < 1";
  match plan ?threshold state events with
  | Error _ as e -> e
  | Ok (_, steps) ->
    let initial = state.table in
    let swaps =
      List.mapi
        (fun i (s : step) ->
           {
             Sim.at_cycle = warmup + (i * interval);
             table = s.table;
             staged = (match s.verdict with
                       | Transition.Safe -> false
                       | Transition.Unsafe _ -> true);
           })
        steps
    in
    let one_round = Traffic.all_to_all_shift state.base ~message_bytes in
    (* Traffic must outlast the swap schedule or later swaps never
       activate: calibrate with one silent no-swap round and repeat the
       pattern enough times to cover every swap plus one more interval
       of settled traffic (staged drains only stretch the run further,
       which is fine). *)
    let traffic =
      let calib =
        match config with
        | Some config -> Sim.run ~config initial ~traffic:one_round
        | None -> Sim.run initial ~traffic:one_round
      in
      let per_round = max 1 calib.Sim.cycles in
      let schedule_end = warmup + (interval * (List.length steps + 1)) in
      let rounds = max 1 (1 + ((schedule_end + per_round - 1) / per_round)) in
      List.concat (List.init rounds (fun _ -> one_round))
    in
    let outcome, telemetry, swap_records =
      match config with
      | Some config ->
        Sim.run_with_swaps ~config ?telemetry initial ~swaps ~traffic
      | None -> Sim.run_with_swaps ?telemetry initial ~swaps ~traffic
    in
    let plan_seconds =
      List.fold_left (fun acc (s : step) -> acc +. s.seconds) 0.0 steps
    in
    Ok { steps; outcome; telemetry; swap_records; plan_seconds }

(* {1 JSON} *)

let verdict_to_json = function
  | Transition.Safe -> Json.Obj [ ("safe", Json.Bool true) ]
  | Transition.Unsafe { cycle; drain; _ } ->
    Json.Obj
      [
        ("safe", Json.Bool false);
        ( "cycle",
          Json.List
            (List.map
               (fun (c, vl) ->
                  Json.Obj [ ("channel", Json.Int c); ("vl", Json.Int vl) ])
               cycle) );
        ("drain_dests", Json.Int (Array.length drain));
      ]

let step_to_json (s : step) =
  Json.Obj
    [
      ("event", Json.Str (Event.to_string s.event));
      ("affected_dests", Json.Int (Array.length s.affected));
      ("affected_fraction", Json.Float s.affected_fraction);
      ( "reroute",
        Json.Str (match s.kind with Incremental -> "incremental" | Full -> "full") );
      ("transition", verdict_to_json s.verdict);
      ("seconds", Json.Float s.seconds);
      ("num_vls", Json.Int s.table.num_vls);
    ]

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let churn_to_json (c : churn) =
  let steps = c.steps in
  let count p = List.length (List.filter p steps) in
  let fails = count (fun s -> Event.is_fail s.event) in
  let incremental = count (fun s -> s.kind = Incremental) in
  let safe =
    count (fun s -> match s.verdict with Transition.Safe -> true | _ -> false)
  in
  let fractions = List.map (fun s -> s.affected_fraction) steps in
  let single_fail_fractions =
    List.filter_map
      (fun s ->
         if Event.is_fail s.event then Some s.affected_fraction else None)
      steps
  in
  let windows =
    List.filter_map
      (fun (r : Sim.swap_record) ->
         if r.Sim.drained_at >= 0 then
           Some (float_of_int (r.Sim.drained_at - r.Sim.swap_at))
         else None)
      c.swap_records
  in
  let o = c.outcome in
  Json.Obj
    [
      ("events", Json.Int (List.length steps));
      ("fail_events", Json.Int fails);
      ("repair_events", Json.Int (List.length steps - fails));
      ("incremental_reroutes", Json.Int incremental);
      ("full_reroutes", Json.Int (List.length steps - incremental));
      ("safe_transitions", Json.Int safe);
      ("staged_transitions", Json.Int (List.length steps - safe));
      ("mean_affected_fraction", Json.Float (mean fractions));
      ( "max_affected_fraction",
        Json.Float (List.fold_left max 0.0 fractions) );
      ( "mean_fail_affected_fraction",
        Json.Float (mean single_fail_fractions) );
      ("plan_seconds", Json.Float c.plan_seconds);
      ( "events_per_second",
        Json.Float
          (if c.plan_seconds > 0.0 then
             float_of_int (List.length steps) /. c.plan_seconds
           else 0.0) );
      ( "sim",
        Json.Obj
          [
            ("delivered_packets", Json.Int o.Sim.delivered_packets);
            ("total_packets", Json.Int o.Sim.total_packets);
            ("cycles", Json.Int o.Sim.cycles);
            ("deadlock", Json.Bool o.Sim.deadlock);
            ("aggregate_gbs", Json.Float o.Sim.aggregate_gbs);
            ("avg_packet_latency", Json.Float o.Sim.avg_packet_latency);
            ("latency_p99", Json.Float o.Sim.latency_p99);
          ] );
      ( "swaps",
        Json.List
          (List.map
             (fun (r : Sim.swap_record) ->
                Json.Obj
                  [
                    ("requested_at", Json.Int r.Sim.swap_at);
                    ("activated_at", Json.Int r.Sim.activated_at);
                    ("in_flight_packets", Json.Int r.Sim.in_flight_packets);
                    ("in_flight_flits", Json.Int r.Sim.in_flight_flits);
                    ("drained_at", Json.Int r.Sim.drained_at);
                  ])
             c.swap_records) );
      ( "mean_disruption_window",
        Json.Float (mean windows) );
      ( "max_disruption_window",
        Json.Float (List.fold_left max 0.0 windows) );
      ("steps", Json.List (List.map step_to_json steps));
    ]
