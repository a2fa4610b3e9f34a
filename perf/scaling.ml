(* Workload [scaling-2d]: the seeded traces through [Parallel_replay.run]
   in affinity mode, alternating a 1-domain and a 2-domain pass.
   Affinity mode gives every object one lane, so there is no
   contention: whatever keeps two domains from doubling the rate is
   what they share (the [Lock_stats] atomics, stop-the-world minor
   collections, lock-word placement, the deques). *)

open Tl_workload
module Runtime = Tl_runtime.Runtime

type inputs = { traces : Inputs.traces; tracegen_ns : int }

let setup ~seed =
  Common.timed_setup (fun () ->
      let t0 = Spans.now () in
      let traces = Inputs.traces ~seed in
      { traces; tracegen_ns = Spans.now () - t0 })

let config domains =
  { Parallel_replay.default_config with domains; mode = Parallel_replay.Affinity }

(* What the passes at one domain count gather. *)
type samples = {
  rates : Common.series;  (** ops/s of each pass, spawn to join *)
  pass_ms : Common.series;  (** each pass, spawn to join *)
  mutable prep_ms : float list;  (** each pass outside spawn to join *)
  mutable busy_ms : float array list;  (** each pass's per-domain busy time *)
  mutable imbalance : float list;  (** busiest domain's busy time over elapsed *)
  mutable steals : int;
  gc : Common.gc;
  paths : Check.paths;
}

let samples () =
  {
    rates = Common.series ();
    pass_ms = Common.series ();
    prep_ms = [];
    busy_ms = [];
    imbalance = [];
    steals = 0;
    gc = Common.gc ();
    paths = Check.paths ();
  }

(* One pass over every trace on [domains] domains; [run i f] brackets
   the replay of trace [i]. *)
let pass o s (inputs : Inputs.traces) ~scheme ~runtime ~domains ~run =
  let config = config domains in
  let elapsed = ref 0.0 and imbalance = ref 0.0 in
  let busy = Array.make domains 0.0 in
  let wall_ms, host =
    Common.host_over @@ fun () ->
    let t0 = Spans.now () in
    let () =
      Common.gc_over s.gc ~ops:inputs.ops @@ fun () ->
      Array.iteri
        (fun i trace ->
          let r : Parallel_replay.result =
            run i (fun () -> Parallel_replay.run ~config ~scheme ~runtime trace)
          in
          Common.check o
            (r.Parallel_replay.ops = Array.length trace.Tracegen.ops
            && r.Parallel_replay.acquires = inputs.acquires.(i)
            && Check.conserved ~acquires:inputs.acquires.(i) r.Parallel_replay.stats)
            (Printf.sprintf "%d-domain replay of %s did not conserve ops and acquires" domains
               (Inputs.name trace));
          Check.add s.paths r.Parallel_replay.stats;
          elapsed := !elapsed +. r.Parallel_replay.elapsed;
          s.steals <- s.steals + r.Parallel_replay.steals;
          Array.iter
            (fun (t : Parallel_replay.domain_tally) ->
              let d = t.Parallel_replay.domain in
              busy.(d) <- busy.(d) +. t.Parallel_replay.busy;
              imbalance :=
                Float.max !imbalance (t.Parallel_replay.busy /. r.Parallel_replay.elapsed))
            r.Parallel_replay.tallies)
        inputs.traces
    in
    float_of_int (Spans.now () - t0) /. 1e6
  in
  Common.add s.rates ~host (float_of_int inputs.ops /. !elapsed);
  Common.add s.pass_ms ~host (!elapsed *. 1e3);
  s.prep_ms <- (wall_ms -. (!elapsed *. 1e3)) :: s.prep_ms;
  s.busy_ms <- Array.map (fun b -> b *. 1e3) busy :: s.busy_ms;
  s.imbalance <- !imbalance :: s.imbalance

(* Alternate 1- and 2-domain passes until [seconds] have passed.  Each
   pass runs on a freshly collected heap with a fresh [thin] context, so
   where its counters and lock words land is drawn anew every pass
   rather than once per run.  [wrap scheme] gives the scheme a pass uses
   and, for a round and a domain count, how to bracket each trace's
   replay. *)
let measure o inputs ?(wrap = fun s -> (s, fun _ _ _ f -> f ())) ~seconds () =
  let one = samples () and two = samples () in
  let runtime = Runtime.create () in
  let pass_on s ~domains round =
    Gc.full_major ();
    let scheme, run = wrap (Common.thin_packed runtime) in
    pass o s inputs.traces ~scheme ~runtime ~domains ~run:(run round domains)
  in
  Common.rounds ~seconds (fun round ->
      pass_on one ~domains:1 round;
      pass_on two ~domains:2 round);
  (one, two)

(* Before measuring, one 2-domain pass through a scheme that remembers
   what it locked: every object must end unlocked. *)
let verify_unheld o (inputs : Inputs.traces) =
  let runtime = Runtime.create () in
  let scheme = Common.thin_packed runtime in
  Array.iter
    (fun trace ->
      let _, held =
        Check.held_after scheme (fun scheme ->
            Parallel_replay.run ~config:(config 2) ~scheme ~runtime trace)
      in
      Common.check o (held = 0)
        (Printf.sprintf "%d object(s) still held after replaying %s" held (Inputs.name trace)))
    inputs.traces

let end_to_end o inputs setup_s ~seconds =
  verify_unheld o inputs.traces;
  let one, two = measure o inputs ~seconds () in
  Common.describe "rate_2d" two.rates;
  Common.describe "pass_ms_1d" one.pass_ms;
  Common.metric o "setup_s" "s" setup_s;
  Common.metric o "throughput_per_s" "1/s" (Common.settled two.rates);
  Common.metric o "latency_ms" "ms" (Common.settled one.pass_ms)

let per_layer o inputs ~seconds =
  let ladder, ladder_ok = Ladder.run () in
  Common.check o ladder_ok "the ladder left its object locked or printed a wrong sum";
  Ladder.report o ladder;
  verify_unheld o inputs.traces;
  let base_one, base_two = measure o inputs ~seconds:(0.35 *. seconds) () in
  let ops = Hashtbl.create 256 and root = ref (-1) in
  let wrap scheme =
    let probe = Probe.wrap scheme in
    ( probe.Probe.scheme,
      fun round domains i f ->
        let trace = (2 * round) + domains - 1 in
        let id, r = Probe.pass probe ~name:"workload.parallel_replay" ~parent:!root ~trace f in
        Hashtbl.replace ops id (Array.length inputs.traces.traces.(i).Tracegen.ops);
        r )
  in
  let one, two =
    Spans.with_span ~name:"traced_phase" ~parent:(-1) ~trace:0 (fun id ->
        root := id;
        measure o inputs ~wrap ~seconds:(0.65 *. seconds) ())
  in
  let spans = Spans.all () in
  let split =
    Probe.split ~pass_name:"workload.parallel_replay" ~ops_of_pass:(Hashtbl.find ops) spans
  in
  let m = Common.metric o in
  let median l = Common.median (Array.of_list l) in
  m "workload.replay.self_ns_per_op" "ns" split.Probe.self_ns_per_op;
  m "core.thin.ns_per_op" "ns" split.Probe.core_ns_per_op;
  m "workload.tracegen_ms" "ms" (float_of_int inputs.tracegen_ns /. 1e6);
  m "parallel_replay.busy_ms.d0" "ms" (median (List.map (fun b -> b.(0)) two.busy_ms));
  m "parallel_replay.busy_ms.d1" "ms" (median (List.map (fun b -> b.(1)) two.busy_ms));
  m "parallel_replay.imbalance" "ratio" (median two.imbalance);
  m "parallel_replay.steals" "count"
    (float_of_int two.steals /. float_of_int (List.length two.imbalance));
  m "parallel_replay.scaling_x" "x"
    (Common.settled base_two.rates /. Common.settled base_one.rates);
  m "parallel_replay.one_domain_ops_per_s" "1/s" (Common.settled base_one.rates);
  m "parallel_replay.prep_ms" "ms" (median two.prep_ms);
  Common.report_gc o two.gc;
  Check.report o two.paths;
  Common.report_overhead o ~rate:(base_two.rates, two.rates)
    ~time:(base_one.pass_ms, one.pass_ms);
  m "host.steal_share" "ratio" (Common.median (Common.steals two.rates));
  spans
