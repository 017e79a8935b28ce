(* Resource-attribution profiling: per-span GC/alloc deltas, pool
   busy/idle timelines, speculation outcomes, measured Amdahl serial
   fraction. See profile.mli for the semantics. *)

(* {1 Flag and clock} *)

let flag = Atomic.make false
let enabled () = Atomic.get flag

(* Sys.time (CPU seconds) keeps this library dependency-free; the
   pipeline installs Unix.gettimeofday at link time. *)
let clock : (unit -> float) ref = ref Sys.time
let set_clock f = clock := f
let now () = !clock ()

(* {1 Report-facing types} *)

type alloc_node = {
  an_name : string;
  an_calls : int;
  an_seconds : float;
  an_self_seconds : float;
  an_minor_words : float;
  an_self_minor_words : float;
  an_major_words : float;
  an_self_major_words : float;
  an_promoted_words : float;
  an_minor_collections : int;
  an_major_collections : int;
  an_children : alloc_node list;
}

type worker_sample = {
  ws_busy_seconds : float;
  ws_chunks : int;
  ws_segments : (float * float) array;
  ws_dropped_segments : int;
}

type pool_region = {
  pr_label : string;
  pr_jobs : int;
  pr_tasks : int;
  pr_t0 : float;
  pr_t1 : float;
  pr_workers : worker_sample array;
}

type round = {
  rd_size : int;
  rd_committed : int;
  rd_misspeculated : int;
  rd_live : int;
}

let segment_cap = 512

(* Bounds on the *kept* record lists; totals keep accumulating past
   them so the serial-fraction arithmetic never skews. *)
let region_cap = 4096
let round_cap = 8192

(* {1 Per-domain accumulation state} *)

(* One node per span-name stack path. Inclusive fields cover the whole
   scope; self = own Gc delta minus same-domain children. Worker
   subtrees merged at pool join contribute to ancestors' inclusive
   alloc through the frame extra-accumulators (never to self, and never
   to seconds: allocation adds across domains, wall time does not). *)
type node = {
  nd_name : string;
  mutable nd_calls : int;
  mutable nd_secs : float;
  mutable nd_self_secs : float;
  mutable nd_minor : float;
  mutable nd_self_minor : float;
  mutable nd_major : float;
  mutable nd_self_major : float;
  mutable nd_promoted : float;
  mutable nd_minor_cols : int;
  mutable nd_major_cols : int;
  nd_children : (string, node) Hashtbl.t;
}

let new_node name =
  {
    nd_name = name;
    nd_calls = 0;
    nd_secs = 0.;
    nd_self_secs = 0.;
    nd_minor = 0.;
    nd_self_minor = 0.;
    nd_major = 0.;
    nd_self_major = 0.;
    nd_promoted = 0.;
    nd_minor_cols = 0;
    nd_major_cols = 0;
    nd_children = Hashtbl.create 8;
  }

type frame = {
  f_node : node;
  f_t0 : float;
  f_minor0 : float;
  f_major0 : float;
  f_promoted0 : float;
  f_mcols0 : int;
  f_jcols0 : int;
  (* same-domain children: subtracted from self at pop *)
  mutable f_child_secs : float;
  mutable f_child_minor : float;
  mutable f_child_major : float;
  (* worker-shard alloc absorbed under this scope: added to inclusive *)
  mutable f_extra_minor : float;
  mutable f_extra_major : float;
  mutable f_extra_promoted : float;
  mutable f_extra_mcols : int;
  mutable f_extra_jcols : int;
}

type state = {
  mutable root : node;
  mutable stack : frame list;
  mutable window_t0 : float;
  mutable regions : pool_region list; (* newest first *)
  mutable n_regions : int;
  mutable regions_dropped : int;
  mutable agg_pool_wall : float;
  mutable agg_busy : float;
  mutable agg_weighted : float; (* sum of region wall x jobs *)
  mutable agg_max_jobs : int;
  mutable rounds : round list; (* newest first *)
  mutable n_rounds : int;
  mutable rounds_dropped : int;
  mutable agg_committed : int;
  mutable agg_misspec : int;
  mutable agg_live : int;
}

let fresh_state () =
  {
    root = new_node "";
    stack = [];
    window_t0 = now ();
    regions = [];
    n_regions = 0;
    regions_dropped = 0;
    agg_pool_wall = 0.;
    agg_busy = 0.;
    agg_weighted = 0.;
    agg_max_jobs = 0;
    rounds = [];
    n_rounds = 0;
    rounds_dropped = 0;
    agg_committed = 0;
    agg_misspec = 0;
    agg_live = 0;
  }

let state_key = Domain.DLS.new_key fresh_state
let get_state () = Domain.DLS.get state_key

let clear_state st =
  st.root <- new_node "";
  st.stack <- [];
  st.regions <- [];
  st.n_regions <- 0;
  st.regions_dropped <- 0;
  st.agg_pool_wall <- 0.;
  st.agg_busy <- 0.;
  st.agg_weighted <- 0.;
  st.agg_max_jobs <- 0;
  st.rounds <- [];
  st.n_rounds <- 0;
  st.rounds_dropped <- 0;
  st.agg_committed <- 0;
  st.agg_misspec <- 0;
  st.agg_live <- 0

let reset () =
  let st = get_state () in
  clear_state st;
  st.window_t0 <- now ()

(* {1 Scope hooks: alloc attribution} *)

let child_of parent name =
  match Hashtbl.find_opt parent.nd_children name with
  | Some n -> n
  | None ->
    let n = new_node name in
    Hashtbl.add parent.nd_children name n;
    n

let on_enter name =
  if Atomic.get flag then begin
    let st = get_state () in
    let parent = match st.stack with f :: _ -> f.f_node | [] -> st.root in
    let node = child_of parent name in
    let q = Gc.quick_stat () in
    let f =
      {
        f_node = node;
        f_t0 = now ();
        (* [quick_stat.minor_words] is only refreshed at collection
           points; [Gc.minor_words] reads the young pointer and is
           exact at any instant, which short scopes need. *)
        f_minor0 = Gc.minor_words ();
        f_major0 = q.Gc.major_words;
        f_promoted0 = q.Gc.promoted_words;
        f_mcols0 = q.Gc.minor_collections;
        f_jcols0 = q.Gc.major_collections;
        f_child_secs = 0.;
        f_child_minor = 0.;
        f_child_major = 0.;
        f_extra_minor = 0.;
        f_extra_major = 0.;
        f_extra_promoted = 0.;
        f_extra_mcols = 0;
        f_extra_jcols = 0;
      }
    in
    st.stack <- f :: st.stack
  end

let on_exit name =
  if Atomic.get flag then begin
    let st = get_state () in
    match st.stack with
    | [] -> () (* scope opened before profiling was enabled *)
    | f :: rest when String.equal f.f_node.nd_name name ->
      let q = Gc.quick_stat () in
      let d_secs = Float.max 0. (now () -. f.f_t0) in
      let d_minor = Float.max 0. (Gc.minor_words () -. f.f_minor0) in
      let d_major = Float.max 0. (q.Gc.major_words -. f.f_major0) in
      let d_promoted = Float.max 0. (q.Gc.promoted_words -. f.f_promoted0) in
      let d_mcols = max 0 (q.Gc.minor_collections - f.f_mcols0) in
      let d_jcols = max 0 (q.Gc.major_collections - f.f_jcols0) in
      let n = f.f_node in
      n.nd_calls <- n.nd_calls + 1;
      n.nd_secs <- n.nd_secs +. d_secs;
      n.nd_self_secs <- n.nd_self_secs +. Float.max 0. (d_secs -. f.f_child_secs);
      n.nd_minor <- n.nd_minor +. d_minor +. f.f_extra_minor;
      n.nd_self_minor <-
        n.nd_self_minor +. Float.max 0. (d_minor -. f.f_child_minor);
      n.nd_major <- n.nd_major +. d_major +. f.f_extra_major;
      n.nd_self_major <-
        n.nd_self_major +. Float.max 0. (d_major -. f.f_child_major);
      n.nd_promoted <- n.nd_promoted +. d_promoted +. f.f_extra_promoted;
      n.nd_minor_cols <- n.nd_minor_cols + d_mcols + f.f_extra_mcols;
      n.nd_major_cols <- n.nd_major_cols + d_jcols + f.f_extra_jcols;
      st.stack <- rest;
      (match rest with
      | p :: _ ->
        p.f_child_secs <- p.f_child_secs +. d_secs;
        p.f_child_minor <- p.f_child_minor +. d_minor;
        p.f_child_major <- p.f_child_major +. d_major;
        p.f_extra_minor <- p.f_extra_minor +. f.f_extra_minor;
        p.f_extra_major <- p.f_extra_major +. f.f_extra_major;
        p.f_extra_promoted <- p.f_extra_promoted +. f.f_extra_promoted;
        p.f_extra_mcols <- p.f_extra_mcols + f.f_extra_mcols;
        p.f_extra_jcols <- p.f_extra_jcols + f.f_extra_jcols
      | [] -> ())
    | _ :: _ ->
      (* Lockstep with Span's nesting stack was lost (Span.reset
         mid-scope clears its stack without exit hooks).
         Attribution for the open frames is unrecoverable: discard
         them rather than mis-attribute to the wrong nodes. *)
      st.stack <- []
  end

let hooks = { Span.on_scope_enter = on_enter; on_scope_exit = on_exit }

let enable () =
  Atomic.set flag true;
  Span.set_scope_hooks (Some hooks)

let disable () =
  Atomic.set flag false;
  Span.set_scope_hooks None

(* {1 Pool regions and speculation rounds} *)

let record_region r =
  if Atomic.get flag then begin
    let st = get_state () in
    let wall = Float.max 0. (r.pr_t1 -. r.pr_t0) in
    let busy =
      Array.fold_left (fun a w -> a +. w.ws_busy_seconds) 0. r.pr_workers
    in
    st.agg_pool_wall <- st.agg_pool_wall +. wall;
    st.agg_busy <- st.agg_busy +. busy;
    st.agg_weighted <- st.agg_weighted +. (wall *. float_of_int r.pr_jobs);
    if r.pr_jobs > st.agg_max_jobs then st.agg_max_jobs <- r.pr_jobs;
    if st.n_regions < region_cap then begin
      st.regions <- r :: st.regions;
      st.n_regions <- st.n_regions + 1
    end
    else st.regions_dropped <- st.regions_dropped + 1
  end

let record_round r =
  if Atomic.get flag then begin
    let st = get_state () in
    st.agg_committed <- st.agg_committed + r.rd_committed;
    st.agg_misspec <- st.agg_misspec + r.rd_misspeculated;
    st.agg_live <- st.agg_live + r.rd_live;
    if st.n_rounds < round_cap then begin
      st.rounds <- r :: st.rounds;
      st.n_rounds <- st.n_rounds + 1
    end
    else st.rounds_dropped <- st.rounds_dropped + 1
  end

(* {1 Shard transfer} *)

type shard = {
  s_root : node;
  s_regions : pool_region list; (* oldest first *)
  s_regions_dropped : int;
  s_pool_wall : float;
  s_busy : float;
  s_weighted : float;
  s_max_jobs : int;
  s_rounds : round list; (* oldest first *)
  s_rounds_dropped : int;
  s_committed : int;
  s_misspec : int;
  s_live : int;
}

let drain_shard () =
  let st = get_state () in
  let s =
    {
      s_root = st.root;
      s_regions = List.rev st.regions;
      s_regions_dropped = st.regions_dropped;
      s_pool_wall = st.agg_pool_wall;
      s_busy = st.agg_busy;
      s_weighted = st.agg_weighted;
      s_max_jobs = st.agg_max_jobs;
      s_rounds = List.rev st.rounds;
      s_rounds_dropped = st.rounds_dropped;
      s_committed = st.agg_committed;
      s_misspec = st.agg_misspec;
      s_live = st.agg_live;
    }
  in
  clear_state st;
  s

let rec merge_node dst src =
  dst.nd_calls <- dst.nd_calls + src.nd_calls;
  dst.nd_secs <- dst.nd_secs +. src.nd_secs;
  dst.nd_self_secs <- dst.nd_self_secs +. src.nd_self_secs;
  dst.nd_minor <- dst.nd_minor +. src.nd_minor;
  dst.nd_self_minor <- dst.nd_self_minor +. src.nd_self_minor;
  dst.nd_major <- dst.nd_major +. src.nd_major;
  dst.nd_self_major <- dst.nd_self_major +. src.nd_self_major;
  dst.nd_promoted <- dst.nd_promoted +. src.nd_promoted;
  dst.nd_minor_cols <- dst.nd_minor_cols + src.nd_minor_cols;
  dst.nd_major_cols <- dst.nd_major_cols + src.nd_major_cols;
  Hashtbl.iter
    (fun name child -> merge_node (child_of dst name) child)
    src.nd_children

let absorb_shard s =
  let st = get_state () in
  let attach = match st.stack with f :: _ -> f.f_node | [] -> st.root in
  Hashtbl.iter
    (fun name child -> merge_node (child_of attach name) child)
    s.s_root.nd_children;
  (* Credit the shard's top-level alloc to the open scope's inclusive
     totals (the caller's own Gc deltas never saw worker allocation). *)
  (match st.stack with
  | f :: _ ->
    Hashtbl.iter
      (fun _ c ->
        f.f_extra_minor <- f.f_extra_minor +. c.nd_minor;
        f.f_extra_major <- f.f_extra_major +. c.nd_major;
        f.f_extra_promoted <- f.f_extra_promoted +. c.nd_promoted;
        f.f_extra_mcols <- f.f_extra_mcols + c.nd_minor_cols;
        f.f_extra_jcols <- f.f_extra_jcols + c.nd_major_cols)
      s.s_root.nd_children
  | [] -> ());
  List.iter
    (fun r ->
      if st.n_regions < region_cap then begin
        st.regions <- r :: st.regions;
        st.n_regions <- st.n_regions + 1
      end
      else st.regions_dropped <- st.regions_dropped + 1)
    s.s_regions;
  st.regions_dropped <- st.regions_dropped + s.s_regions_dropped;
  st.agg_pool_wall <- st.agg_pool_wall +. s.s_pool_wall;
  st.agg_busy <- st.agg_busy +. s.s_busy;
  st.agg_weighted <- st.agg_weighted +. s.s_weighted;
  if s.s_max_jobs > st.agg_max_jobs then st.agg_max_jobs <- s.s_max_jobs;
  List.iter
    (fun r ->
      if st.n_rounds < round_cap then begin
        st.rounds <- r :: st.rounds;
        st.n_rounds <- st.n_rounds + 1
      end
      else st.rounds_dropped <- st.rounds_dropped + 1)
    s.s_rounds;
  st.rounds_dropped <- st.rounds_dropped + s.s_rounds_dropped;
  st.agg_committed <- st.agg_committed + s.s_committed;
  st.agg_misspec <- st.agg_misspec + s.s_misspec;
  st.agg_live <- st.agg_live + s.s_live

(* {1 The report} *)

type report = {
  p_wall_seconds : float;
  p_serial_seconds : float;
  p_parallel_busy_seconds : float;
  p_pool_wall_seconds : float;
  p_serial_fraction : float;
  p_utilization : float;
  p_max_jobs : int;
  p_regions : pool_region list;
  p_regions_dropped : int;
  p_rounds : round list;
  p_rounds_dropped : int;
  p_committed : int;
  p_misspeculated : int;
  p_live : int;
  p_alloc : alloc_node list;
}

let clamp01 x = Float.min 1. (Float.max 0. x)

let rec export_node n =
  let kids =
    Hashtbl.fold (fun _ c acc -> export_node c :: acc) n.nd_children []
  in
  let kids =
    List.sort
      (fun a b ->
        let wa = a.an_minor_words +. a.an_major_words
        and wb = b.an_minor_words +. b.an_major_words in
        if wa <> wb then compare wb wa else compare a.an_name b.an_name)
      kids
  in
  {
    an_name = n.nd_name;
    an_calls = n.nd_calls;
    an_seconds = n.nd_secs;
    an_self_seconds = n.nd_self_secs;
    an_minor_words = n.nd_minor;
    an_self_minor_words = n.nd_self_minor;
    an_major_words = n.nd_major;
    an_self_major_words = n.nd_self_major;
    an_promoted_words = n.nd_promoted;
    an_minor_collections = n.nd_minor_cols;
    an_major_collections = n.nd_major_cols;
    an_children = kids;
  }

let report () =
  let st = get_state () in
  let wall = Float.max 0. (now () -. st.window_t0) in
  let serial = Float.max 0. (wall -. st.agg_pool_wall) in
  let busy = st.agg_busy in
  let denom = serial +. busy in
  let fraction = if denom <= 0. then 1. else clamp01 (serial /. denom) in
  let utilization =
    if st.agg_weighted <= 0. then 0. else clamp01 (busy /. st.agg_weighted)
  in
  let alloc = (export_node st.root).an_children in
  {
    p_wall_seconds = wall;
    p_serial_seconds = serial;
    p_parallel_busy_seconds = busy;
    p_pool_wall_seconds = st.agg_pool_wall;
    p_serial_fraction = fraction;
    p_utilization = utilization;
    p_max_jobs = st.agg_max_jobs;
    p_regions = List.rev st.regions;
    p_regions_dropped = st.regions_dropped;
    p_rounds = List.rev st.rounds;
    p_rounds_dropped = st.rounds_dropped;
    p_committed = st.agg_committed;
    p_misspeculated = st.agg_misspec;
    p_live = st.agg_live;
    p_alloc = alloc;
  }

let amdahl_speedup r ~jobs =
  let jobs = max 1 jobs in
  let f = clamp01 r.p_serial_fraction in
  1. /. (f +. ((1. -. f) /. float_of_int jobs))

(* {1 Rendering} *)

let fmt_words w =
  if w >= 1e9 then Printf.sprintf "%.2fGW" (w /. 1e9)
  else if w >= 1e6 then Printf.sprintf "%.2fMW" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkW" (w /. 1e3)
  else Printf.sprintf "%.0fW" w

let alloc_flamegraph ?(width = 48) r =
  let b = Buffer.create 1024 in
  let total =
    List.fold_left
      (fun a n -> a +. n.an_minor_words +. n.an_major_words)
      0. r.p_alloc
  in
  Buffer.add_string b
    (Printf.sprintf "alloc flamegraph (total %s allocated)\n" (fmt_words total));
  let rec go depth n =
    let alloc = n.an_minor_words +. n.an_major_words in
    let self = n.an_self_minor_words +. n.an_self_major_words in
    let pct = if total > 0. then 100. *. alloc /. total else 0. in
    let label = String.make (2 * depth) ' ' ^ n.an_name in
    let label =
      if String.length label >= width then label
      else label ^ String.make (width - String.length label) ' '
    in
    Buffer.add_string b
      (Printf.sprintf "%s %6.2f%%  %10s  self %10s  x%-6d %9.3fs\n" label pct
         (fmt_words alloc) (fmt_words self) n.an_calls n.an_seconds);
    List.iter (go (depth + 1)) n.an_children
  in
  List.iter (go 0) r.p_alloc;
  Buffer.contents b

let timeline ?(width = 60) r =
  let b = Buffer.create 1024 in
  if r.p_regions = [] then Buffer.add_string b "no pool regions recorded\n";
  List.iter
    (fun reg ->
      let wall = Float.max 0. (reg.pr_t1 -. reg.pr_t0) in
      let busy =
        Array.fold_left (fun a w -> a +. w.ws_busy_seconds) 0. reg.pr_workers
      in
      let util =
        if wall > 0. && reg.pr_jobs > 0 then
          100. *. busy /. (wall *. float_of_int reg.pr_jobs)
        else 0.
      in
      Buffer.add_string b
        (Printf.sprintf "[%s] jobs=%d tasks=%d wall=%.4fs busy=%.4fs util=%.1f%%\n"
           reg.pr_label reg.pr_jobs reg.pr_tasks wall busy util);
      Array.iteri
        (fun i w ->
          let bar = Bytes.make width '.' in
          if wall > 0. then
            for k = 0 to width - 1 do
              let b0 =
                reg.pr_t0 +. (wall *. float_of_int k /. float_of_int width)
              in
              let b1 =
                reg.pr_t0 +. (wall *. float_of_int (k + 1) /. float_of_int width)
              in
              let cover =
                Array.fold_left
                  (fun a (s0, s1) ->
                    a +. Float.max 0. (Float.min s1 b1 -. Float.max s0 b0))
                  0. w.ws_segments
              in
              let f = cover /. (b1 -. b0) in
              Bytes.set bar k
                (if f >= 2. /. 3. then '#' else if f > 0. then '+' else '.')
            done;
          let trail =
            if w.ws_dropped_segments > 0 then
              Printf.sprintf " (+%d segments past cap)" w.ws_dropped_segments
            else ""
          in
          Buffer.add_string b
            (Printf.sprintf "  w%-2d |%s| busy %.4fs chunks %d%s\n" i
               (Bytes.to_string bar) w.ws_busy_seconds w.ws_chunks trail))
        reg.pr_workers)
    r.p_regions;
  Buffer.contents b
