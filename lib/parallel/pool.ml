module Obs = Nue_obs.Obs
module Recorder = Nue_obs.Recorder
module Profile = Nue_obs.Profile

let clamp_jobs n = if n < 1 then 1 else n

let default_jobs_cell = Atomic.make 1

let set_default_jobs n = Atomic.set default_jobs_cell (clamp_jobs n)

let default_jobs () = Atomic.get default_jobs_cell

let () =
  match Sys.getenv_opt "NUE_JOBS" with
  | None -> ()
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> set_default_jobs n
     | Some _ | None ->
       Printf.eprintf
         "nue: invalid NUE_JOBS=%S (want an integer >= 1); using 1 job\n%!" s)

(* Per-participant busy/chunk tracking, only allocated while the
   profiler is enabled. Busy segments past [Profile.segment_cap] are
   counted but not kept; the busy/chunk totals stay exact. *)
type track = {
  mutable tk_busy : float;
  mutable tk_chunks : int;
  tk_segs : (float * float) array;
  mutable tk_nsegs : int;
  mutable tk_dropped : int;
}

let new_track () =
  { tk_busy = 0.;
    tk_chunks = 0;
    tk_segs = Array.make Profile.segment_cap (0., 0.);
    tk_nsegs = 0;
    tk_dropped = 0 }

let track_chunk tk t0 t1 =
  tk.tk_busy <- tk.tk_busy +. Float.max 0. (t1 -. t0);
  tk.tk_chunks <- tk.tk_chunks + 1;
  if tk.tk_nsegs < Profile.segment_cap then begin
    tk.tk_segs.(tk.tk_nsegs) <- (t0, t1);
    tk.tk_nsegs <- tk.tk_nsegs + 1
  end
  else tk.tk_dropped <- tk.tk_dropped + 1

let sample_of tk =
  { Profile.ws_busy_seconds = tk.tk_busy;
    ws_chunks = tk.tk_chunks;
    ws_segments = Array.sub tk.tk_segs 0 tk.tk_nsegs;
    ws_dropped_segments = tk.tk_dropped }

(* What a worker domain sends home at join: its busy sample ([None]
   unless the profiler was enabled when the region started) and its
   outcome. What its tasks recorded travels per task instead (see
   [run_with]). *)
type worker_result = {
  w_sample : Profile.worker_sample option;
  w_exn : exn option;
}

let run_with ?jobs ?(chunk = 1) ?(label = "pool") ~n ~init body =
  let jobs = clamp_jobs (match jobs with Some j -> j | None -> default_jobs ()) in
  if n > 0 then begin
    let chunk = max 1 chunk in
    let nchunks = (n + chunk - 1) / chunk in
    let profiling = Profile.enabled () in
    if jobs = 1 || n = 1 then begin
      let t0 = if profiling then Obs.now () else 0. in
      let ctx = init () in
      for i = 0 to n - 1 do body ctx i done;
      if profiling then begin
        let t1 = Obs.now () in
        let tk = new_track () in
        track_chunk tk t0 t1;
        (* The inline path claims the whole range at once; count it as
           the [nchunks] the cursor would have handed out so chunk
           totals agree across job counts. *)
        tk.tk_chunks <- nchunks;
        Profile.record_region
          { Profile.pr_label = label;
            pr_jobs = 1;
            pr_tasks = n;
            pr_t0 = t0;
            pr_t1 = t1;
            pr_workers = [| sample_of tk |] }
      end
    end
    else begin
      let t_region0 = if profiling then Obs.now () else 0. in
      let next = Atomic.make 0 in
      let cancelled = Atomic.make false in
      (* One observability capture per task: whatever the task recorded
         on whichever domain ran it (events, scopes, counters,
         allocation) is cut into the task's slot, and the caller absorbs
         the slots in index order after the join, which reproduces the
         single-domain recording exactly. *)
      let capturing = Atomic.get Recorder.views <> 0 in
      let slots = if capturing then Array.make n None else [||] in
      (* Claim chunks until the cursor runs past [n] or a failure
         elsewhere cancels the remainder. [init] runs inside the
         participant's first task, so what it records is captured too. *)
      let work tk () =
        let ctx = lazy (init ()) in
        let run i = body (Lazy.force ctx) i in
        let task i =
          if not capturing then run i
          else begin
            let m = Recorder.mark () in
            match run i with
            | () -> slots.(i) <- Some (Recorder.cut m)
            | exception e ->
              slots.(i) <- Some (Recorder.cut m);
              raise e
          end
        in
        let rec loop () =
          if not (Atomic.get cancelled) then begin
            let start = Atomic.fetch_and_add next chunk in
            if start < n then begin
              let stop = min n (start + chunk) in
              (match tk with
               | None -> for i = start to stop - 1 do task i done
               | Some tk ->
                 let t0 = Obs.now () in
                 for i = start to stop - 1 do task i done;
                 track_chunk tk t0 (Obs.now ()));
              loop ()
            end
          end
        in
        loop ()
      in
      let nworkers = min (jobs - 1) (nchunks - 1) in
      let doms =
        Array.init nworkers (fun _ ->
          Domain.spawn (fun () ->
            let tk = if profiling then Some (new_track ()) else None in
            let outcome =
              match work tk () with
              | () -> None
              | exception e ->
                Atomic.set cancelled true;
                Some e
            in
            { w_sample = Option.map sample_of tk; w_exn = outcome }))
      in
      let caller_tk = if profiling then Some (new_track ()) else None in
      let caller_exn =
        match work caller_tk () with
        | () -> None
        | exception e ->
          Atomic.set cancelled true;
          Some e
      in
      let results = Array.map Domain.join doms in
      Array.iter (Option.iter Recorder.absorb) slots;
      (* Profiling gave every participant a track. *)
      if profiling then
        Profile.record_region
          { Profile.pr_label = label;
            pr_jobs = nworkers + 1;
            pr_tasks = n;
            pr_t0 = t_region0;
            pr_t1 = Obs.now ();
            pr_workers =
              Array.append
                [| sample_of (Option.get caller_tk) |]
                (Array.map (fun r -> Option.get r.w_sample) results) };
      match
        (caller_exn, Array.find_map (fun r -> r.w_exn) results)
      with
      | Some e, _ | None, Some e -> raise e
      | None, None -> ()
    end
  end

let run ?jobs ?chunk ?label ~n body =
  run_with ?jobs ?chunk ?label ~n ~init:(fun () -> ()) (fun () i -> body i)
