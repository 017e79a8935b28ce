module Obs = Nue_obs.Obs
module Span = Nue_obs.Span
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

(* What a worker domain sends home at join: its observability shards,
   and its outcome. Shards are drained on the worker (DLS is reachable
   only from the owning domain) and absorbed on the caller, in
   worker-index order, so merged totals do not depend on the schedule.
   The profile shard and busy sample are [None] unless the profiler was
   enabled when the region started. Span events travel per task instead
   (see [run_with]). *)
type worker_result = {
  w_obs : Obs.shard;
  w_profile : Profile.shard option;
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
      if profiling then begin
        let t0 = Profile.now () in
        let ctx = init () in
        for i = 0 to n - 1 do body ctx i done;
        let t1 = Profile.now () in
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
      else begin
        let ctx = init () in
        for i = 0 to n - 1 do body ctx i done
      end
    end
    else begin
      let t_region0 = if profiling then Profile.now () else 0. in
      let next = Atomic.make 0 in
      let cancelled = Atomic.make false in
      (* Each task's span events are cut out of the buffer of whichever
         domain ran it into the task's slot; the caller absorbs the
         slots in index order after the join, which reproduces the
         single-domain trace exactly. *)
      let spans = Span.enabled () in
      let slots = if spans then Array.make n None else [||] in
      let task ctx i =
        if not spans then body ctx i
        else begin
          let m = Span.mark () in
          match body ctx i with
          | () -> slots.(i) <- Some (Span.cut m)
          | exception e ->
            slots.(i) <- Some (Span.cut m);
            raise e
        end
      in
      (* Claim chunks until the cursor runs past [n] or a failure
         elsewhere cancels the remainder. *)
      let work tk () =
        let ctx = init () in
        let rec loop () =
          if not (Atomic.get cancelled) then begin
            let start = Atomic.fetch_and_add next chunk in
            if start < n then begin
              let stop = min n (start + chunk) in
              (match tk with
               | None -> for i = start to stop - 1 do task ctx i done
               | Some tk ->
                 let t0 = Profile.now () in
                 for i = start to stop - 1 do task ctx i done;
                 track_chunk tk t0 (Profile.now ()));
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
            { w_obs = Obs.drain_shard ();
              w_profile = (if profiling then Some (Profile.drain_shard ()) else None);
              w_sample = Option.map sample_of tk;
              w_exn = outcome }))
      in
      let caller_tk = if profiling then Some (new_track ()) else None in
      let caller_exn =
        match work caller_tk () with
        | () -> None
        | exception e ->
          Atomic.set cancelled true;
          Some e
      in
      let samples =
        if profiling then Array.make (nworkers + 1) None else [||]
      in
      if profiling then samples.(0) <- Option.map sample_of caller_tk;
      let worker_exn = ref None in
      Array.iteri
        (fun w d ->
           let r = Domain.join d in
           Obs.absorb_shard r.w_obs;
           Option.iter Profile.absorb_shard r.w_profile;
           if profiling then samples.(w + 1) <- r.w_sample;
           match !worker_exn, r.w_exn with
           | None, Some _ -> worker_exn := r.w_exn
           | _ -> ())
        doms;
      Array.iter (Option.iter Span.absorb) slots;
      if profiling then
        Profile.record_region
          { Profile.pr_label = label;
            pr_jobs = nworkers + 1;
            pr_tasks = n;
            pr_t0 = t_region0;
            pr_t1 = Profile.now ();
            pr_workers =
              Array.map
                (function Some s -> s | None -> sample_of (new_track ()))
                samples };
      match caller_exn, !worker_exn with
      | Some e, _ -> raise e
      | None, Some e -> raise e
      | None, None -> ()
    end
  end

let run ?jobs ?chunk ?label ~n body =
  run_with ?jobs ?chunk ?label ~n ~init:(fun () -> ()) (fun () i -> body i)
