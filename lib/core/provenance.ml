module Network = Nue_netgraph.Network
module Complete_cdg = Nue_cdg.Complete_cdg
module Table = Nue_routing.Table
module Obs = Nue_obs.Obs

(* Volume counters so a traced run can report how much provenance was
   recorded (and the disabled-path test can assert nothing was). *)
let c_steps = Obs.counter "prov.steps"
let c_trails = Obs.counter "prov.trails"

type check_subject =
  | Cdg_edge of Complete_cdg.verdict
  | Into_destination
  | No_edge

type check = {
  chk_channel : int;
  chk_onto : int;
  chk_subject : check_subject;
  chk_state_before : int;
}

let check_ok c =
  match c.chk_subject with
  | Cdg_edge v -> Complete_cdg.verdict_ok v
  | Into_destination -> true
  | No_edge -> false

type via = Dijkstra | Backtrack | Switch | Shortcut | Escape

let via_to_string = function
  | Dijkstra -> "dijkstra"
  | Backtrack -> "backtrack"
  | Switch -> "switch"
  | Shortcut -> "shortcut"
  | Escape -> "escape"

type step =
  | Check of check
  | Finalize of { node : int; channel : int; dist : float; via : via }
  | Impasse of { islands : int }
  | Escape_fallback of { unsolved : int }

type trail = {
  t_dest : int;
  t_layer : int;
  t_root : int;
  t_escape_fallback : bool;
  t_steps : step array;
}

type layer_capture = {
  l_layer : int;
  l_root : int;
  l_cdg : Complete_cdg.t;
  l_escape_channels : bool array;
  l_initial_deps : int;
}

type run = {
  r_strategy : string;
  r_seed : int;
  r_vcs : int;
  r_layers : layer_capture array;
  r_trails : trail array;
}

(* {1 The recorder} *)

(* Building state: reverse lists, frozen into arrays by [capture]. *)
type trail_builder = {
  b_dest : int;
  b_layer : int;
  b_root : int;
  mutable b_escape_fallback : bool;
  mutable b_rev_steps : step list;
}

type layer_builder = {
  lb_layer : int;
  lb_root : int;
  lb_cdg : Complete_cdg.t;
  mutable lb_escape_channels : bool array;
  mutable lb_initial_deps : int;
}

type run_builder = {
  rb_strategy : string;
  rb_seed : int;
  rb_vcs : int;
  mutable rb_rev_layers : layer_builder list;
  mutable rb_rev_trails : trail_builder list;
}

(* Recording flag: configuration set around a routing run and read by
   every domain, so an [Atomic] rather than domain-local state. *)
let on = Atomic.make false

let enabled () = Atomic.get on

let enable () = Atomic.set on true

let disable () = Atomic.set on false

(* Run and layer builders live on the routing driver's domain: layers
   open and close outside any pool region, so workers only ever read
   them. The {e trail} builder is domain-local: each pool worker
   records the destination it is currently speculating into its own
   slot, the driver collects finished trails through {!take_dest} (as
   part of each destination's speculation result) and appends them to
   the run in commit order via {!commit_dest} — dest-ordered
   concatenation, independent of the worker schedule. *)
let current : run_builder option ref = ref None

let cur_layer : layer_builder option ref = ref None

let cur_trail_key =
  Domain.DLS.new_key (fun () : trail_builder option -> None)

let get_trail () = Domain.DLS.get cur_trail_key

let set_trail v = Domain.DLS.set cur_trail_key v

let clear () =
  current := None;
  cur_layer := None;
  set_trail None

let start_run ~strategy ~seed ~vcs =
  if enabled () then begin
    current :=
      Some
        { rb_strategy = strategy; rb_seed = seed; rb_vcs = vcs;
          rb_rev_layers = []; rb_rev_trails = [] };
    cur_layer := None;
    set_trail None
  end

let begin_layer ~layer ~root ~cdg =
  match !current with
  | None -> ()
  | Some r ->
    let lb =
      { lb_layer = layer; lb_root = root; lb_cdg = cdg;
        lb_escape_channels = [||]; lb_initial_deps = 0 }
    in
    r.rb_rev_layers <- lb :: r.rb_rev_layers;
    cur_layer := Some lb

let record_escape_prepared ~channels ~initial_deps =
  match !cur_layer with
  | None -> ()
  | Some lb ->
    lb.lb_escape_channels <- channels;
    lb.lb_initial_deps <- initial_deps

let begin_dest ~dest =
  match (!current, !cur_layer) with
  | Some _, Some lb ->
    let tb =
      { b_dest = dest; b_layer = lb.lb_layer; b_root = lb.lb_root;
        b_escape_fallback = false; b_rev_steps = [] }
    in
    set_trail (Some tb);
    Obs.incr c_trails
  | _ -> ()

type pending = trail_builder

let take_dest () =
  let t = get_trail () in
  set_trail None;
  t

let commit_dest tb =
  match !current with
  | None -> ()
  | Some r -> r.rb_rev_trails <- tb :: r.rb_rev_trails

let end_dest () =
  match take_dest () with
  | None -> ()
  | Some tb -> commit_dest tb

let push step =
  match get_trail () with
  | None -> ()
  | Some tb ->
    tb.b_rev_steps <- step :: tb.b_rev_steps;
    Obs.incr c_steps

(* The hot-path call sites already test [enabled ()] before even
   constructing the arguments (a float read out of an array boxes at the
   call); the guards here make stray unguarded calls no-ops that do not
   allocate the step record either. *)

let record_check ~channel ~onto ~state_before subject =
  if enabled () then
    push
      (Check
         { chk_channel = channel; chk_onto = onto; chk_subject = subject;
           chk_state_before = state_before })

let record_finalize ~node ~channel ~dist ~via =
  if enabled () then push (Finalize { node; channel; dist; via })

let record_impasse ~islands = if enabled () then push (Impasse { islands })

let record_escape_fallback ~unsolved =
  if enabled () then begin
    (match get_trail () with
     | None -> ()
     | Some tb -> tb.b_escape_fallback <- true);
    push (Escape_fallback { unsolved })
  end

let capture () =
  let r = !current in
  clear ();
  match r with
  | None -> None
  | Some rb ->
    let freeze_trail tb =
      { t_dest = tb.b_dest; t_layer = tb.b_layer; t_root = tb.b_root;
        t_escape_fallback = tb.b_escape_fallback;
        t_steps = Array.of_list (List.rev tb.b_rev_steps) }
    in
    let freeze_layer lb =
      { l_layer = lb.lb_layer; l_root = lb.lb_root; l_cdg = lb.lb_cdg;
        l_escape_channels = lb.lb_escape_channels;
        l_initial_deps = lb.lb_initial_deps }
    in
    Some
      { r_strategy = rb.rb_strategy; r_seed = rb.rb_seed;
        r_vcs = rb.rb_vcs;
        r_layers =
          Array.of_list (List.rev_map freeze_layer rb.rb_rev_layers);
        r_trails =
          Array.of_list (List.rev_map freeze_trail rb.rb_rev_trails) }

(* {1 Explanation} *)

type hop = {
  h_node : int;
  h_channel : int;
  h_vl : int;
  h_via : via;
  h_onto : int;
  h_dist : float option;
  h_accepted : check option;
  h_rejected : (check * int) list;
}

type explanation = {
  e_src : int;
  e_dst : int;
  e_layer : int;
  e_root : int;
  e_strategy : string;
  e_seed : int;
  e_vcs : int;
  e_escape_fallback : bool;
  e_backtracks : int;
  e_impasses : int;
  e_hops : hop list;
}

let find_trail run dst =
  let n = Array.length run.r_trails in
  let rec go i =
    if i >= n then None
    else if run.r_trails.(i).t_dest = dst then Some run.r_trails.(i)
    else go (i + 1)
  in
  go 0

let explain run (table : Table.t) ~src ~dst =
  match find_trail run dst with
  | None -> None
  | Some trail ->
    (match Table.path table ~src ~dest:dst with
     | None -> None
     | Some channels ->
       let net = table.Table.net in
       let nn = Network.num_nodes net in
       (* One pass over the trail: the last Finalize per node wins (a
          later switch/shortcut overrides an earlier Dijkstra decision),
          failing checks accumulate at their deciding node, and the last
          successful check per (channel, onto) pair is remembered so the
          admitted dependency of each hop can be reported. *)
       let final : (int * float * via) option array = Array.make nn None in
       let rejected = Array.make nn [] in
       let accepted = Hashtbl.create 64 in
       let backtracks = ref 0 in
       let impasses = ref 0 in
       Array.iter
         (fun step ->
            match step with
            | Finalize { node; channel; dist; via } ->
              final.(node) <- Some (channel, dist, via);
              if via = Backtrack then incr backtracks
            | Check c ->
              if check_ok c then
                Hashtbl.replace accepted (c.chk_channel, c.chk_onto) c
              else begin
                let node = Network.src net c.chk_channel in
                rejected.(node) <- c :: rejected.(node)
              end
            | Impasse _ -> incr impasses
            | Escape_fallback _ -> ())
         trail.t_steps;
       (* The search re-tests the same dependency every time the heap
          re-offers the channel; collapse repeats into a count so the
          rendering stays readable. *)
       let dedup l =
         let seen = Hashtbl.create 16 in
         let order = ref [] in
         List.iter
           (fun c ->
              let k = (c.chk_channel, c.chk_onto, c.chk_subject) in
              match Hashtbl.find_opt seen k with
              | Some r -> incr r
              | None ->
                let r = ref 1 in
                Hashtbl.replace seen k r;
                order := (c, r) :: !order)
           (List.rev l);
         List.rev_map (fun (c, r) -> (c, !r)) !order
       in
       let rejected = Array.map dedup rejected in
       let rec hops i = function
         | [] -> []
         | c :: rest ->
           let node = Network.src net c in
           let onto = match rest with c2 :: _ -> c2 | [] -> -1 in
           let via, dist =
             if trail.t_escape_fallback then (Escape, None)
             else
               match final.(node) with
               | Some (fc, d, v) when fc = c -> (v, Some d)
               | _ -> (Escape, None)
           in
           let acc =
             if via = Escape then None
             else Hashtbl.find_opt accepted (c, onto)
           in
           { h_node = node; h_channel = c;
             h_vl = Table.vl_of table ~src ~dest:dst ~hop:i ~channel:c;
             h_via = via; h_onto = onto; h_dist = dist;
             h_accepted = acc; h_rejected = rejected.(node) }
           :: hops (i + 1) rest
       in
       Some
         { e_src = src; e_dst = dst; e_layer = trail.t_layer;
           e_root = trail.t_root; e_strategy = run.r_strategy;
           e_seed = run.r_seed; e_vcs = run.r_vcs;
           e_escape_fallback = trail.t_escape_fallback;
           e_backtracks = !backtracks; e_impasses = !impasses;
           e_hops = hops 0 channels })

(* {1 Text rendering} *)

let node_label net n =
  Printf.sprintf "%s%d"
    (if Network.is_switch net n then "s" else "t")
    n

let check_to_string net c =
  let edge =
    if c.chk_onto < 0 then
      Printf.sprintf "c%d (into destination)" c.chk_channel
    else Printf.sprintf "c%d -> c%d" c.chk_channel c.chk_onto
  in
  let towards =
    Printf.sprintf "toward %s" (node_label net (Network.dst net c.chk_channel))
  in
  match c.chk_subject with
  | Into_destination -> Printf.sprintf "%s %s: no onward dependency" edge towards
  | No_edge ->
    Printf.sprintf "%s %s: no CDG edge (180-degree turn, Definition 6)" edge
      towards
  | Cdg_edge v ->
    Printf.sprintf "%s %s: %s (condition %c: %s, state was %d)" edge towards
      (if Complete_cdg.verdict_ok v then "accepted" else "BLOCKED")
      (Complete_cdg.verdict_condition v)
      (Complete_cdg.verdict_to_string v)
      c.chk_state_before

let explanation_to_string (table : Table.t) e =
  let net = table.Table.net in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "pair %s -> %s: %d hop(s) on virtual layer %d\n"
    (node_label net e.e_src) (node_label net e.e_dst)
    (List.length e.e_hops) e.e_layer;
  add "  layer chosen by %s partition of the destinations (seed %d, %d VC(s))\n"
    e.e_strategy e.e_seed e.e_vcs;
  add "  escape root %s; escape fallback: %s; backtracks: %d; impasses: %d\n"
    (node_label net e.e_root)
    (if e.e_escape_fallback then "YES (whole destination on escape paths)"
     else "no")
    e.e_backtracks e.e_impasses;
  List.iteri
    (fun i h ->
       add "  hop %d: %s --[c%d]--> %s  (vl %d, via %s%s)\n" (i + 1)
         (node_label net h.h_node) h.h_channel
         (node_label net (Network.dst net h.h_channel))
         h.h_vl (via_to_string h.h_via)
         (match h.h_dist with
          | Some d -> Printf.sprintf ", dist %.2f" d
          | None -> "");
       (match h.h_accepted with
        | Some c -> add "    admitted: %s\n" (check_to_string net c)
        | None ->
          if h.h_via = Escape then
            add "    admitted: escape-tree dependency (pre-seeded, \
                 cycle-free by construction)\n"
          else if h.h_onto < 0 then
            add "    admitted: channel ends at the destination (no onward \
                 dependency)\n");
       List.iter
         (fun (c, times) ->
            if not (check_ok c) then
              add "    rejected alternative: %s%s\n" (check_to_string net c)
                (if times > 1 then Printf.sprintf " (retried x%d)" times
                 else ""))
         h.h_rejected)
    e.e_hops;
  Buffer.contents buf
