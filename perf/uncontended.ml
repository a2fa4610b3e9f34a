(* Workload [uncontended]: the paper's headline case, one thread and no
   contention.  Each round replays the seeded Table-1 traces through
   the packed [thin] scheme with the sequential [Replay.run], then runs
   the pinned mini-JVM programs once each through [Vm.run_main]. *)

open Tl_core
open Tl_workload
module Runtime = Tl_runtime.Runtime

type inputs = {
  traces : Inputs.traces;
  programs : Programs.t list;
  tracegen_ns : int;
  compile_ns : int;
}

let setup ~seed ~programs_dir =
  let sources = Programs.sources ~dir:programs_dir in
  Common.timed_setup (fun () ->
      let t0 = Spans.now () in
      let traces = Inputs.traces ~seed in
      let t1 = Spans.now () in
      let programs = Programs.compile sources in
      { traces; programs; tracegen_ns = t1 - t0; compile_ns = Spans.now () - t1 })

(* What a measuring loop gathers. *)
type samples = {
  replay_rates : Common.series;  (** ops/s of each replay round *)
  jvm_ms : Common.series;  (** wall time of each pass over the programs *)
  mutable jvm_syncs : int;
  paths : Check.paths;
  gc : Common.gc;  (** per replay round *)
}

let samples () =
  {
    replay_rates = Common.series ~kind:Common.Rate ();
    jvm_ms = Common.series ~kind:Common.Time ();
    jvm_syncs = 0;
    paths = Check.paths ();
    gc = Common.gc ();
  }

(* One replay round over every trace; [pass i f] brackets the replay of
   trace [i].  Each replay starts on a freshly collected heap, as the
   other workloads' passes do, so where its pool lands does not depend on
   the garbage earlier rounds left. *)
let replay_round o s (inputs : Inputs.traces) ~scheme ~env ~pass =
  let elapsed = ref 0.0 in
  let (), host =
    Common.host_over @@ fun () ->
    Common.gc_over s.gc ~ops:inputs.ops @@ fun () ->
    Array.iteri
      (fun i trace ->
        Gc.full_major ();
        let r : Replay.result = pass i (fun () -> Replay.run ~scheme ~env trace) in
        Common.check o
          (Check.conserved ~acquires:inputs.acquires.(i) r.Replay.stats)
          ("replay of " ^ Inputs.name trace ^ " did not conserve acquires");
        Check.add s.paths r.Replay.stats;
        elapsed := !elapsed +. r.Replay.elapsed)
      inputs.traces
  in
  Common.add s.replay_rates ~host (float_of_int inputs.ops /. !elapsed)

(* One pass over the JVM programs, each on a fresh VM, from a freshly
   collected heap; [run] runs its [main]. *)
let jvm_pass o s programs ?scheme_of ~run () =
  Gc.full_major ();
  let elapsed_ns, host =
    Common.host_over @@ fun () ->
    let t0 = Spans.now () in
    List.iter
      (fun (p : Programs.t) ->
        let vm = Tl_lang.Driver.make_vm ?scheme_of p.Programs.program in
        run vm;
        let output = Tl_jvm.Vm.output vm in
        let stats = (Tl_jvm.Vm.scheme vm).Scheme_intf.stats () in
        let printed = output = p.Programs.expected in
        Common.check o
          (printed && Check.conserved ~acquires:(Lock_stats.total_acquires stats) stats)
          (if printed then p.Programs.name ^ " ended holding a monitor"
           else Printf.sprintf "%s printed %S" p.Programs.name output);
        Check.add s.paths stats;
        s.jvm_syncs <- s.jvm_syncs + Tl_jvm.Vm.sync_op_count vm)
      programs;
    Spans.now () - t0
  in
  Common.add s.jvm_ms ~host (float_of_int elapsed_ns /. 1e6)

(* Untraced rounds until [seconds] have passed. *)
let measure o inputs ~seconds =
  let s = samples () in
  let rt = Runtime.create () in
  let env = Runtime.main_env rt in
  let scheme = Common.thin_packed rt in
  Common.rounds ~seconds (fun _ ->
      replay_round o s inputs.traces ~scheme ~env ~pass:(fun _ f -> f ());
      jvm_pass o s inputs.programs ~run:(fun vm -> ignore (Tl_jvm.Vm.run_main vm)) ());
  s

(* Before measuring, one replay of each trace through a scheme that
   remembers what it locked: every object must end unlocked. *)
let verify_unheld o (inputs : Inputs.traces) =
  let rt = Runtime.create () in
  let env = Runtime.main_env rt in
  let scheme = Common.thin_packed rt in
  Array.iteri
    (fun i trace ->
      let r, held = Check.held_after scheme (fun scheme -> Replay.run ~scheme ~env trace) in
      Common.check o
        (held = 0 && Check.conserved ~acquires:inputs.acquires.(i) r.Replay.stats)
        (Printf.sprintf "%d object(s) still held after replaying %s" held (Inputs.name trace)))
    inputs.traces

let end_to_end o inputs setup_s ~seconds =
  verify_unheld o inputs.traces;
  let s = measure o inputs ~seconds in
  Common.describe "replay_rate" s.replay_rates;
  Common.describe "jvm_ms" s.jvm_ms;
  Common.metric o "setup_s" "s" setup_s;
  Common.metric o "throughput_per_s" "1/s" (Common.settled s.replay_rates);
  Common.metric o "latency_ms" "ms" (Common.settled s.jvm_ms)

(* Traced rounds: the same work with the probe scheme under every replay
   and every VM, a span around each round, each trace's replay and each
   [run_main].  Returns the samples and the lock operations of each
   replay and [run_main] span. *)
let traced o inputs ~seconds ~root =
  let s = samples () in
  let rt = Runtime.create () in
  let env = Runtime.main_env rt in
  let probe = Probe.wrap (Common.thin_packed rt) in
  let ops = Hashtbl.create 256 in
  Common.rounds ~seconds (fun trace ->
      Spans.with_span ~name:"round" ~parent:root ~trace @@ fun round_id ->
      replay_round o s inputs.traces ~scheme:probe.Probe.scheme ~env ~pass:(fun i f ->
          let id, r = Probe.pass probe ~name:"workload.replay" ~parent:round_id ~trace f in
          Hashtbl.replace ops id (Array.length inputs.traces.traces.(i).Tracegen.ops);
          r);
      Spans.with_span ~name:"jvm.pass" ~parent:round_id ~trace @@ fun pass_id ->
      (* Each VM owns its runtime, so each gets its own probe. *)
      let vm_probe = ref probe in
      let scheme_of rt =
        vm_probe := Probe.wrap (Common.thin_packed rt);
        !vm_probe.Probe.scheme
      in
      let run vm =
        let id, () =
          Probe.pass !vm_probe ~name:"jvm.run_main" ~parent:pass_id ~trace (fun () ->
              ignore (Tl_jvm.Vm.run_main vm))
        in
        Hashtbl.replace ops id (2 * Tl_jvm.Vm.sync_op_count vm)
      in
      jvm_pass o s inputs.programs ~scheme_of ~run ());
  (s, ops)

let per_layer o inputs ~seconds =
  let ladder, ladder_ok = Ladder.run () in
  Common.check o ladder_ok "the ladder left its object locked or printed a wrong sum";
  Ladder.report o ladder;
  verify_unheld o inputs.traces;
  let base = measure o inputs ~seconds:(0.35 *. seconds) in
  let s, ops =
    Spans.with_span ~name:"traced_phase" ~parent:(-1) ~trace:0 (fun root ->
        traced o inputs ~seconds:(0.65 *. seconds) ~root)
  in
  let spans = Spans.all () in
  let split pass_name = Probe.split ~pass_name ~ops_of_pass:(Hashtbl.find ops) spans in
  let replay = split "workload.replay" and jvm = split "jvm.run_main" in
  let passes = float_of_int (List.length s.jvm_ms.Common.samples) in
  let per_pass_ms ns_per_op = ns_per_op *. float_of_int jvm.Probe.ops /. passes /. 1e6 in
  let m = Common.metric o in
  m "workload.replay.self_ns_per_op" "ns" replay.Probe.self_ns_per_op;
  m "core.thin.ns_per_op" "ns" replay.Probe.core_ns_per_op;
  m "jvm.lock_ms" "ms" (per_pass_ms jvm.Probe.core_ns_per_op);
  m "jvm.self_ms" "ms" (per_pass_ms jvm.Probe.self_ns_per_op);
  m "jvm.syncs" "count" (float_of_int s.jvm_syncs /. passes);
  m "lang.compile_ms" "ms" (float_of_int inputs.compile_ns /. 1e6);
  m "workload.tracegen_ms" "ms" (float_of_int inputs.tracegen_ns /. 1e6);
  Check.report o s.paths;
  Common.report_gc o s.gc;
  Common.report_overhead o ~rate:(base.replay_rates, s.replay_rates)
    ~time:(base.jvm_ms, s.jvm_ms);
  m "host.steal_share" "ratio" (Common.median (Common.steals s.replay_rates));
  spans
