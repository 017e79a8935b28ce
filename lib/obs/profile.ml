(* Resource-attribution profiling: per-span GC/alloc deltas, pool
   busy/idle timelines, speculation outcomes, measured Amdahl serial
   fraction. See profile.mli for the semantics. *)

let enabled () = Recorder.viewing Recorder.alloc

let enable () = Recorder.set_view Recorder.alloc true

let disable () = Recorder.set_view Recorder.alloc false

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

(* {1 The pool-region and round log}

   Process-wide, under a mutex: regions are recorded by whichever
   domain ran [Pool.run] (a pool nested in another pool's task runs on
   a worker), once per region, so the lock is never contended. *)

type log = {
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

let fresh_log () =
  { window_t0 = Recorder.now (); regions = []; n_regions = 0;
    regions_dropped = 0; agg_pool_wall = 0.; agg_busy = 0.;
    agg_weighted = 0.; agg_max_jobs = 0; rounds = []; n_rounds = 0;
    rounds_dropped = 0; agg_committed = 0; agg_misspec = 0; agg_live = 0 }

let log = ref (fresh_log ())

let log_mutex = Mutex.create ()

let locked f =
  Mutex.lock log_mutex;
  match f !log with
  | v -> Mutex.unlock log_mutex; v
  | exception e -> Mutex.unlock log_mutex; raise e

let reset () = locked (fun _ -> log := fresh_log ())

let record_region r =
  if enabled () then
    locked (fun st ->
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
      else st.regions_dropped <- st.regions_dropped + 1)

let record_round r =
  if enabled () then
    locked (fun st ->
      st.agg_committed <- st.agg_committed + r.rd_committed;
      st.agg_misspec <- st.agg_misspec + r.rd_misspeculated;
      st.agg_live <- st.agg_live + r.rd_live;
      if st.n_rounds < round_cap then begin
        st.rounds <- r :: st.rounds;
        st.n_rounds <- st.n_rounds + 1
      end
      else st.rounds_dropped <- st.rounds_dropped + 1)

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

(* A recorder node's fields are self costs; inclusive words and
   collections sum the subtree, pool-task subtrees included. Inclusive
   seconds are the node's own: wall time does not add across domains. *)
let rec export_node (n : Recorder.node) =
  let kids =
    Hashtbl.fold (fun _ c acc -> export_node c :: acc) n.children []
  in
  let kids =
    List.sort
      (fun a b ->
        let wa = a.an_minor_words +. a.an_major_words
        and wb = b.an_minor_words +. b.an_major_words in
        if wa <> wb then compare wb wa else compare a.an_name b.an_name)
      kids
  in
  let sum f own = List.fold_left (fun acc k -> acc +. f k) own kids in
  let isum f own = List.fold_left (fun acc k -> acc + f k) own kids in
  {
    an_name = n.name;
    an_calls = n.calls;
    an_seconds = n.secs;
    an_self_seconds = n.self_secs;
    an_minor_words = sum (fun k -> k.an_minor_words) n.minor_words;
    an_self_minor_words = n.minor_words;
    an_major_words = sum (fun k -> k.an_major_words) n.major_words;
    an_self_major_words = n.major_words;
    an_promoted_words = sum (fun k -> k.an_promoted_words) n.promoted_words;
    an_minor_collections = isum (fun k -> k.an_minor_collections) n.minor_gcs;
    an_major_collections = isum (fun k -> k.an_major_collections) n.major_gcs;
    an_children = kids;
  }

let report () =
  let alloc =
    if enabled () then (export_node (Recorder.get ()).Recorder.root).an_children
    else []
  in
  locked @@ fun st ->
  let wall = Float.max 0. (Recorder.now () -. st.window_t0) in
  let serial = Float.max 0. (wall -. st.agg_pool_wall) in
  let busy = st.agg_busy in
  let denom = serial +. busy in
  let fraction = if denom <= 0. then 1. else clamp01 (serial /. denom) in
  let utilization =
    if st.agg_weighted <= 0. then 0. else clamp01 (busy /. st.agg_weighted)
  in
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
