(* Workload [fiber-storm]: a closed admission window of fibers on two
   carrier domains.  Each fiber runs one lock episode on its seeded
   Zipf-0.99 object: think, acquire, read the object's counter, burn
   the critical-section work, yield while holding, write the counter
   back, release.  A lost update in the counters is broken exclusion.
   Each pass admits [Inputs.storm_fibers] fibers on a fresh runtime,
   scheduler, [thin] context and object set. *)

open Tl_core
module Runtime = Tl_runtime.Runtime
module Parker = Tl_runtime.Parker
module Scheduler = Tl_fiber.Scheduler

let domains = 2

(* Spin units before and inside the critical section, as in the
   shipped storm. *)
let think_work = 64
let critical_work = 32

(* The traced run writes the spans of one episode in [span_every]. *)
let span_every = 16

type inputs = { draws : int array }

let setup ~seed = Common.timed_setup (fun () -> { draws = Inputs.storm_draws ~seed })

(* Episode latencies over every pass, admission to completion (ms),
   and, in the traced run, its phases (us): spawned to first run,
   acquire begun to granted, granted to released. *)
type hists = {
  episode : Common.Hist.t;
  runq : Common.Hist.t;
  wait : Common.Hist.t;
  hold : Common.Hist.t;
}

let hists () =
  let h lo = Common.Hist.create ~lo in
  { episode = h 1e-4; runq = h 0.1; wait = h 0.1; hold = h 0.1 }

(* Per-episode timestamps (ns) of one pass.  Each slot is written by
   the generator (admission) or by the episode's own fiber, and read
   only after the scheduler has joined every fiber.  The untraced pass
   stamps only admission and completion. *)
type stamps = {
  admitted : int array;
  started : int array;
  begun : int array;
  granted : int array;
  released : int array;
  finished : int array;
}

type pass = {
  episodes : int;
  p99_ms : float;  (** this pass's episode latency, 99th percentile *)
  elapsed_ns : int;
  stats : Lock_stats.snapshot;
  counter_sum : int;
  completed : int;
  overflow_waits : int;
}

(* The storm's lock: [thin] as shipped, with the never-sleep backoff
   the shipped storm uses so a spinning fiber yields its carrier to the
   fibers queued on it instead of sleeping the domain. *)
let thin_config = { Thin.default_config with backoff_policy = Tl_runtime.Backoff.Yield }

let run_pass ~traced ~pass_no ~root ~hists inputs =
  let n = Array.length inputs.draws in
  let stamp_len = if traced then n else 0 in
  let stamps =
    {
      admitted = Array.make n 0;
      started = Array.make stamp_len 0;
      begun = Array.make stamp_len 0;
      granted = Array.make stamp_len 0;
      released = Array.make stamp_len 0;
      finished = Array.make n 0;
    }
  in
  let runtime = Runtime.create () in
  let ctx = Thin.create_with ~config:thin_config runtime in
  let objs = Tl_heap.Heap.alloc_many (Tl_heap.Heap.create ()) Inputs.storm_objects in
  let counters = Array.make Inputs.storm_objects 0 in
  let completed = Atomic.make 0 in
  let slots = Atomic.make Inputs.storm_window in
  let pass_id = Spans.fresh_id () in
  let t0 = Spans.now () in
  let overflow_waits =
    Scheduler.run ~domains runtime (fun genv ->
        let gen_parker = genv.Runtime.parker in
        let episode i env =
          if traced then stamps.started.(i) <- Spans.now ();
          let k = inputs.draws.(i) in
          let obj = objs.(k) in
          Tl_workload.Replay.spin_work think_work;
          if traced then stamps.begun.(i) <- Spans.now ();
          Thin.acquire ctx env obj;
          if traced then stamps.granted.(i) <- Spans.now ();
          let v = counters.(k) in
          Tl_workload.Replay.spin_work critical_work;
          Scheduler.yield ();
          counters.(k) <- v + 1;
          Thin.release ctx env obj;
          let fin = Spans.now () in
          if traced then begin
            stamps.released.(i) <- fin;
            if i mod span_every = 0 then begin
              let trace = (pass_no * n) + i in
              let id = Spans.fresh_id () in
              Spans.record ~name:"fiber.runq_wait" ~parent:id ~trace stamps.admitted.(i)
                stamps.started.(i);
              Spans.record ~name:"monitor.acquire_wait" ~parent:id ~trace stamps.begun.(i)
                stamps.granted.(i);
              Spans.record ~name:"fiber.hold" ~parent:id ~trace stamps.granted.(i) fin;
              Spans.record ~id ~name:"fiber.episode" ~parent:pass_id ~trace stamps.admitted.(i)
                fin
            end
          end;
          stamps.finished.(i) <- fin;
          Atomic.incr completed;
          Atomic.incr slots;
          Parker.unpark gen_parker
        in
        for i = 0 to n - 1 do
          while Atomic.get slots <= 0 do
            Parker.park gen_parker
          done;
          Atomic.decr slots;
          stamps.admitted.(i) <- Spans.now ();
          ignore (Scheduler.spawn ~name:"storm" (episode i) : unit -> unit)
        done;
        while Atomic.get completed < n do
          Parker.park gen_parker
        done;
        Scheduler.overflow_waits ())
  in
  let t1 = Spans.now () in
  if traced then
    Spans.record ~id:pass_id ~name:"fiber.storm_pass" ~parent:root ~trace:pass_no t0 t1;
  let add hs unit_ns a b =
    Array.iteri
      (fun i x -> List.iter (fun h -> Common.Hist.add h (float_of_int (b.(i) - x) /. unit_ns)) hs)
      a
  in
  let episode = Common.Hist.create ~lo:1e-4 in
  add [ episode; hists.episode ] 1e6 stamps.admitted stamps.finished;
  if traced then begin
    add [ hists.runq ] 1e3 stamps.admitted stamps.started;
    add [ hists.wait ] 1e3 stamps.begun stamps.granted;
    add [ hists.hold ] 1e3 stamps.granted stamps.released
  end;
  {
    episodes = n;
    p99_ms = Common.Hist.pct episode 99.0;
    elapsed_ns = t1 - t0;
    stats = Lock_stats.snapshot (Thin.stats ctx);
    counter_sum = Array.fold_left ( + ) 0 counters;
    completed = Atomic.get completed;
    overflow_waits;
  }

(* One operation per admitted episode.  An episode fails if its fiber
   never completed or its counter update was lost; a pass whose lock
   statistics do not show one acquire and one release per episode
   fails one more. *)
let check o p =
  let n = p.episodes in
  let incomplete = n - p.completed and lost = n - p.counter_sum in
  Common.count o ~attempted:n ~failed:(max 0 incomplete) "storm fibers did not all complete";
  Common.count o ~attempted:0 ~failed:(abs lost) "lost updates in the storm counters";
  Common.count o ~attempted:0
    ~failed:(if Check.conserved ~acquires:n p.stats then 0 else 1)
    "storm acquires and releases do not match the episodes"

(* What a run of passes gathers. *)
type run = {
  hists : hists;
  rates : Common.series;  (** episodes/s of each pass *)
  p99s : Common.series;  (** each pass's episode latency p99, ms *)
  gc : Common.gc;
  paths : Check.paths;
  mutable overflow_waits : int;
}

let rate p = float_of_int p.episodes /. (float_of_int p.elapsed_ns /. 1e9)

(* Passes, each on a freshly collected heap, until [seconds] have
   passed. *)
let passes ~traced ~root inputs ~seconds o =
  let r =
    {
      hists = hists ();
      rates = Common.series ();
      p99s = Common.series ();
      gc = Common.gc ();
      paths = Check.paths ();
      overflow_waits = 0;
    }
  in
  Common.rounds ~seconds (fun pass_no ->
      Gc.full_major ();
      let p, host =
        Common.host_over @@ fun () ->
        Common.gc_over r.gc ~ops:(Array.length inputs.draws) @@ fun () ->
        run_pass ~traced ~pass_no ~root ~hists:r.hists inputs
      in
      check o p;
      Common.add r.rates ~host (rate p);
      Common.add r.p99s ~host p.p99_ms;
      Check.add r.paths p.stats;
      r.overflow_waits <- r.overflow_waits + p.overflow_waits);
  r

let end_to_end o inputs setup_s ~seconds =
  let r = passes ~traced:false ~root:(-1) inputs ~seconds o in
  Common.describe "episodes_per_s" r.rates;
  Common.describe "episode_p99_ms" r.p99s;
  Common.Hist.describe "episode_ms" r.hists.episode;
  Common.metric o "setup_s" "s" setup_s;
  Common.metric o "throughput_per_s" "1/s" (Common.settled r.rates);
  Common.metric o "latency_ms" "ms" (Common.settled r.p99s)

let per_layer o inputs ~seconds =
  let ladder, ladder_ok = Ladder.run () in
  Common.check o ladder_ok "the ladder left its object locked or printed a wrong sum";
  Ladder.report o ladder;
  let base = passes ~traced:false ~root:(-1) inputs ~seconds:(0.35 *. seconds) o in
  let r =
    Spans.with_span ~name:"traced_phase" ~parent:(-1) ~trace:0 (fun root ->
        passes ~traced:true ~root inputs ~seconds:(0.65 *. seconds) o)
  in
  let m = Common.metric o in
  let pct = Common.Hist.pct in
  m "fiber.runq_wait_us_p50" "us" (pct r.hists.runq 50.0);
  m "fiber.runq_wait_us_p99" "us" (pct r.hists.runq 99.0);
  m "fiber.hold_us_p50" "us" (pct r.hists.hold 50.0);
  m "fiber.hold_us_p99" "us" (pct r.hists.hold 99.0);
  m "monitor.acquire_wait_us_p50" "us" (pct r.hists.wait 50.0);
  m "monitor.acquire_wait_us_p99" "us" (pct r.hists.wait 99.0);
  m "monitor.acquire_wait_us_p999" "us" (pct r.hists.wait 99.9);
  m "fiber.episode_ms_p50" "ms" (pct r.hists.episode 50.0);
  m "fiber.episodes" "count" (float_of_int (Common.Hist.count r.hists.episode));
  m "runtime.tid.overflow_waits" "count" (float_of_int r.overflow_waits);
  Check.report o r.paths;
  Common.report_gc o r.gc;
  Common.report_overhead o ~rate:(base.rates, r.rates) ~time:(base.p99s, r.p99s);
  m "host.steal_share" "ratio" (Common.median (Common.steals r.rates));
  Spans.all ()
