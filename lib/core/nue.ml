module Network = Nue_netgraph.Network
module Complete_cdg = Nue_cdg.Complete_cdg
module Table = Nue_routing.Table
module Balance = Nue_routing.Balance
module Prng = Nue_structures.Prng
module Obs = Nue_obs.Obs
module Span = Nue_obs.Span
module Profile = Nue_obs.Profile
module Pool = Nue_parallel.Pool

let c_layers = Obs.counter "nue.layers_routed"
let c_initial_deps = Obs.counter "nue.initial_deps"
let c_speculated = Obs.counter "nue.speculated_dests"
let c_misspec = Obs.counter "nue.misspeculations"

type options = {
  strategy : Partition.strategy;
  seed : int;
  use_backtracking : bool;
  use_shortcuts : bool;
  global_weights : bool;
  central_root : bool;
}

let default_options =
  { strategy = Partition.Kway;
    seed = 1;
    use_backtracking = true;
    use_shortcuts = true;
    global_weights = true;
    central_root = true }

type run_stats = {
  fallbacks : int;
  backtracks : int;
  shortcuts : int;
  impasse_dests : int;
  initial_deps : int;
  cycle_searches : int;
  misspeculations : int;
  roots : int array;
}

(* {1 Batched speculative rounds}

   Destinations within a layer are coupled through the shared CDG (an
   edge admitted for one destination constrains the next) and through
   the balancing weights, so they cannot simply run concurrently. They
   are instead processed in rounds of doubling size: every destination
   of a round is routed {e speculatively} against the CDG and weights
   as they stood when the round began, recording its state changes into
   a journal; the round then commits one destination at a time, in
   round order, by replaying its journal onto the authoritative CDG. A
   replay that no longer holds (an earlier commit blocked an edge this
   speculation admitted) discards the speculation and re-routes that
   destination sequentially on the live state — the fallback that makes
   the result exact, not approximate.

   A speculation runs between [Complete_cdg.checkpoint] and [rollback],
   so it costs only what its search touches. With one participant it
   runs on the authoritative CDG itself. With several, each participant
   speculates on its own replica, refreshed from the authoritative CDG
   once per round; the authoritative CDG is only read until the commit.
   Weights are only written by commits, so every speculation of a round
   reads the same weights on any schedule.

   Because round boundaries, snapshots and commit order are all pure
   functions of the (seeded) destination order — never of the domain
   schedule — the tables, counters and provenance trails are
   byte-identical for any job count, including jobs = 1, which runs the
   very same code inline. Round sizes double from 1 (the first
   destination seeds the orientation alone, cheaply) up to a cap; sizes
   are independent of the job count by construction. *)

let max_round = 64

(* One destination's speculation, shipped from the worker back to the
   committing domain. *)
type speculation = {
  sp_nexts : int array;
  sp_journal : Complete_cdg.journal;
  sp_stats : Nue_dijkstra.stats;
  sp_searches : int; (* order-decided queries of this speculation alone *)
  sp_trail : Provenance.pending option;
}

(* Working memory kept across a whole run, so routing a destination
   leaves no major-heap garbage besides its table row: one Dijkstra
   scratch per participant slot, one journal per round position (a
   round's journals are consumed by its commit before the next round
   starts) and the balancing walk of the commit loop. *)
type work = {
  jobs : int;
  scratch : Nue_dijkstra.scratch option array; (* per participant slot *)
  journals : Complete_cdg.journal array; (* per round position *)
  walk : Nue_routing.Verify.walk;
}

let scratch_of work net k =
  match work.scratch.(k) with
  | Some sc -> sc
  | None ->
    let sc = Nue_dijkstra.create_scratch net in
    work.scratch.(k) <- Some sc;
    sc

let route_subset ~options ~cdg ~escape ~weights ~scale ~net ~sources ~layer
    ~stats ~spec_searches ~misspecs ~commit ~work subset =
  let route_live dest =
    (* The sequential path: route on the authoritative CDG and live
       weights, exactly as the pre-batching code did. *)
    if Provenance.enabled () then Provenance.begin_dest ~dest;
    let nexts =
      (* One span per destination-routing round (one constrained-
         Dijkstra tree, Algorithm 1). The fallback/backtrack
         annotations land inside as instant events from
         Nue_dijkstra. *)
      Span.with_ "nue.dest"
        ~args:[ ("dest", Span.Int dest); ("layer", Span.Int layer) ]
        (fun () ->
           Nue_dijkstra.route_destination cdg ~escape ~weights ~dest
             ~use_backtracking:options.use_backtracking
             ~use_shortcuts:options.use_shortcuts
             ~scratch:(scratch_of work net 0) ~stats ())
    in
    if Provenance.enabled () then Provenance.end_dest ();
    commit ~dest ~nexts;
    Balance.update_weights ~scale ~walk:work.walk net ~weights ~nexts ~dest
      ~sources
  in
  (* Rounds have at least two tasks, so the pool runs them inline
     exactly when jobs = 1. *)
  let solo = work.jobs = 1 in
  let replicas = Array.make work.jobs None in
  let claims = Atomic.make 0 in
  (* Participant [k]'s graph for this round: the live CDG when alone,
     else replica [k], refreshed while the live CDG is only read. *)
  let graph_of k =
    if solo then cdg
    else
      match replicas.(k) with
      | Some g ->
        Complete_cdg.copy_state_into ~src:cdg ~dst:g;
        g
      | None ->
        let g = Complete_cdg.clone cdg in
        replicas.(k) <- Some g;
        g
  in
  let n = Array.length subset in
  let i = ref 0 in
  let round = ref 1 in
  while !i < n do
    let r = min !round (n - !i) in
    if r = 1 then begin
      route_live subset.(!i);
      if Profile.enabled () then
        Profile.record_round
          { Profile.rd_size = 1;
            rd_committed = 0;
            rd_misspeculated = 0;
            rd_live = 1 }
    end
    else begin
      let base = !i in
      let results : speculation option array = Array.make r None in
      Atomic.set claims 0;
      Pool.run_with ~jobs:work.jobs ~n:r ~label:"nue.round"
        ~init:(fun () ->
            let k = Atomic.fetch_and_add claims 1 in
            (graph_of k, scratch_of work net k))
        (fun (graph, scratch) k ->
           let dest = subset.(base + k) in
           Obs.incr c_speculated;
           let journal = work.journals.(k) in
           Complete_cdg.journal_clear journal;
           let sp_stats = Nue_dijkstra.fresh_stats () in
           if Provenance.enabled () then Provenance.begin_dest ~dest;
           Complete_cdg.checkpoint graph;
           Complete_cdg.set_journal graph (Some journal);
           let searches0 = Complete_cdg.cycle_searches graph in
           let nexts =
             Span.with_ "nue.dest"
               ~args:
                 [ ("dest", Span.Int dest); ("layer", Span.Int layer);
                   ("speculative", Span.Bool true) ]
               (fun () ->
                  Nue_dijkstra.route_destination graph ~escape ~weights ~dest
                    ~use_backtracking:options.use_backtracking
                    ~use_shortcuts:options.use_shortcuts ~scratch
                    ~stats:sp_stats ())
           in
           let sp_searches = Complete_cdg.cycle_searches graph - searches0 in
           Complete_cdg.set_journal graph None;
           Complete_cdg.rollback graph;
           results.(k) <-
             Some
               { sp_nexts = nexts;
                 sp_journal = journal;
                 sp_stats;
                 sp_searches;
                 sp_trail = Provenance.take_dest () });
      let committed = ref 0 and round_misspecs = ref 0 in
      (* The serial tail of every round: journal replays, weight
         updates and misspeculation recomputes, in dest order. The pool
         re-raises any task's exception, so every slot is filled. *)
      Span.with_ "nue.commit" ~args:[ ("round", Span.Int r) ] (fun () ->
      for k = 0 to r - 1 do
        let dest = subset.(base + k) in
        let sp = Option.get results.(k) in
        if Complete_cdg.replay cdg sp.sp_journal then begin
          incr committed;
          stats.Nue_dijkstra.fallbacks <-
            stats.Nue_dijkstra.fallbacks + sp.sp_stats.Nue_dijkstra.fallbacks;
          stats.Nue_dijkstra.backtracks <-
            stats.Nue_dijkstra.backtracks + sp.sp_stats.Nue_dijkstra.backtracks;
          stats.Nue_dijkstra.shortcuts <-
            stats.Nue_dijkstra.shortcuts + sp.sp_stats.Nue_dijkstra.shortcuts;
          stats.Nue_dijkstra.impasse_dests <-
            stats.Nue_dijkstra.impasse_dests
            + sp.sp_stats.Nue_dijkstra.impasse_dests;
          spec_searches := !spec_searches + sp.sp_searches;
          (match sp.sp_trail with
           | Some trail -> Provenance.commit_dest trail
           | None -> ());
          commit ~dest ~nexts:sp.sp_nexts;
          Balance.update_weights ~scale ~walk:work.walk net ~weights
            ~nexts:sp.sp_nexts ~dest ~sources
        end
        else begin
          (* An earlier commit of this round invalidated the
             speculation; its trail and stats are dropped with it. *)
          Obs.incr c_misspec;
          incr misspecs;
          incr round_misspecs;
          route_live dest
        end
      done);
      if Profile.enabled () then
        Profile.record_round
          { Profile.rd_size = r;
            rd_committed = !committed;
            rd_misspeculated = !round_misspecs;
            rd_live = !round_misspecs }
    end;
    i := !i + r;
    round := min (2 * !round) max_round
  done

let route_with_stats ?(options = default_options) ?dests ?sources ~vcs net =
  if vcs < 1 then invalid_arg "Nue.route: vcs must be >= 1";
  let dests = match dests with Some d -> d | None -> Network.terminals net in
  let sources =
    match sources with Some s -> s | None -> Network.terminals net
  in
  let prng = Prng.create options.seed in
  if Provenance.enabled () then
    Provenance.start_run
      ~strategy:(Partition.strategy_name options.strategy)
      ~seed:options.seed ~vcs;
  let subsets =
    Span.with_ "nue.partition"
      ~args:[ ("k", Span.Int vcs); ("dests", Span.Int (Array.length dests)) ]
      (fun () ->
         Partition.partition ~strategy:options.strategy ~prng net ~dests
           ~k:vcs)
  in
  (* Route each layer's destinations in random order: consecutive ids sit
     next to each other on regular topologies and build systematically
     conflicting dependencies, which measurably inflates impasse counts
     (see EXPERIMENTS.md). The shuffle is seeded, so runs stay
     deterministic. *)
  Array.iter (fun subset -> Prng.shuffle prng subset) subsets;
  let nn = Network.num_nodes net in
  let nc = Network.num_channels net in
  let dest_pos = Array.make nn (-1) in
  Array.iteri (fun i d -> dest_pos.(d) <- i) dests;
  (* Rows are the routed trees themselves, stored at commit. *)
  let next_channel = Array.make (Array.length dests) [||] in
  let layer_of_dest = Array.make (Array.length dests) 0 in
  let stats = Nue_dijkstra.fresh_stats () in
  let initial_deps = ref 0 in
  let cycle_searches = ref 0 in
  let misspecs = ref 0 in
  let roots = ref [] in
  let global_weights = Array.make nc 1.0 in
  let scale = Balance.tie_break_scale ~sources ~dests in
  let jobs = Pool.default_jobs () in
  let work =
    { jobs;
      scratch = Array.make jobs None;
      journals = Array.init max_round (fun _ -> Complete_cdg.journal_create ());
      walk = Nue_routing.Verify.walk net }
  in
  Array.iteri
    (fun layer subset ->
       if Array.length subset > 0 then begin
         let root =
           if options.central_root then
             Span.with_ "nue.rootsel"
               ~args:
                 [ ("layer", Span.Int layer);
                   ("members", Span.Int (Array.length subset)) ]
               (fun () -> Rootsel.choose net ~dests:subset)
           else begin
             let d = subset.(0) in
             if Network.is_switch net d then d
             else Network.terminal_attachment net d
           end
         in
         roots := root :: !roots;
         Obs.incr c_layers;
         Span.with_ "nue.layer"
           ~args:
             [ ("layer", Span.Int layer);
               ("root", Span.Int root);
               ("dests", Span.Int (Array.length subset)) ]
           (fun () ->
              let cdg = Complete_cdg.create net in
              (* Before [Escape.prepare]: its hook records the escape
                 tree into the current layer capture. *)
              if Provenance.enabled () then
                Provenance.begin_layer ~layer ~root ~cdg;
              let escape = Escape.prepare cdg ~root ~dests:subset in
              let deps = Escape.initial_dependencies escape in
              Obs.add c_initial_deps deps;
              initial_deps := !initial_deps + deps;
              let weights =
                if options.global_weights then global_weights
                else Array.make nc 1.0
              in
              let spec_searches = ref 0 in
              let commit ~dest ~nexts =
                let pos = dest_pos.(dest) in
                next_channel.(pos) <- nexts;
                layer_of_dest.(pos) <- layer
              in
              route_subset ~options ~cdg ~escape ~weights ~scale ~net
                ~sources ~layer ~stats ~spec_searches ~misspecs ~commit
                ~work subset;
              (* The layer's search total: searches on the authoritative
                 graph (escape seeding, replays, re-routes; rollback
                 removes speculations' own) plus each committed
                 speculation's searches — both independent of the
                 domain schedule. *)
              cycle_searches :=
                !cycle_searches + Complete_cdg.cycle_searches cdg
                + !spec_searches)
       end)
    subsets;
  (* Only a destination listed twice leaves a row behind unrouted. *)
  Array.iteri
    (fun pos row ->
       if Array.length row = 0 then next_channel.(pos) <- Array.make nn (-1))
    next_channel;
  let run =
    { fallbacks = stats.Nue_dijkstra.fallbacks;
      backtracks = stats.Nue_dijkstra.backtracks;
      shortcuts = stats.Nue_dijkstra.shortcuts;
      impasse_dests = stats.Nue_dijkstra.impasse_dests;
      initial_deps = !initial_deps;
      cycle_searches = !cycle_searches;
      misspeculations = !misspecs;
      roots = Array.of_list (List.rev !roots) }
  in
  let table =
    Table.make ~net ~algorithm:(Printf.sprintf "nue-%dvl" vcs) ~dests
      ~next_channel
      ~vl:(Table.Per_dest layer_of_dest)
      ~num_vls:vcs
      ~info:
        [ ("fallbacks", float_of_int run.fallbacks);
          ("backtracks", float_of_int run.backtracks);
          ("shortcuts", float_of_int run.shortcuts);
          ("impasse_dests", float_of_int run.impasse_dests);
          ("initial_deps", float_of_int run.initial_deps);
          ("cycle_searches", float_of_int run.cycle_searches);
          ("misspeculations", float_of_int run.misspeculations) ]
      ()
  in
  (table, run)

let route ?options ?dests ?sources ~vcs net =
  fst (route_with_stats ?options ?dests ?sources ~vcs net)
