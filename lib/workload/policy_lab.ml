(* The policy lab: replay macro traces under each deflation policy and
   score the lifecycle dynamics from the event stream.

   Plain counter snapshots can say how many deflations happened; only
   the ordered stream can say how long monitors *stayed* fat (the
   residency integral), or whether a deflation was wasted because the
   same object re-inflated moments later (thrash).  The lab replays
   the same deterministic trace once per policy with tracing on, then
   computes those stream metrics plus the fast-path ratio.

   Knobs chosen so lifecycle dynamics actually appear in a
   single-threaded replay: a 1-bit nest count makes every depth-3
   episode overflow-inflate (the traces' depth censuses give each
   benchmark its own inflation pressure), and a quiescence point is
   announced every [quiescence_every] ops, which is what drives the
   quiescence-hooked reaper. *)

module Runtime = Tl_runtime.Runtime
module Thin = Tl_core.Thin
module Scheme_intf = Tl_core.Scheme_intf
module Policy = Tl_lifecycle.Policy
module Reaper = Tl_lifecycle.Reaper
module Controller = Tl_lifecycle.Controller
module Sink = Tl_events.Sink
module Event = Tl_events.Event
module T = Tl_util.Tablefmt

let shipped_policies =
  [
    Policy.never;
    Policy.always_idle;
    Policy.idle_for ~quiescence_points:4;
    Policy.zero_contended_episodes;
  ]

let policy_of_string name =
  List.find_opt (fun p -> p.Policy.name = name) shipped_policies

(* How the reaper is driven: a fixed policy, or the self-tuning
   feedback controller re-selecting per-shard policies at runtime. *)
type reap = Reap_fixed of Policy.t | Reap_controlled of Controller.config

let reap_of_string ?(controller = Controller.default_config) name =
  if String.equal name "controlled" then Some (Reap_controlled controller)
  else Option.map (fun p -> Reap_fixed p) (policy_of_string name)

type lock = Thin of { fat_backend : Tl_monitor.Fatlock.backend; reap : reap } | Cjm

type par = {
  domains : int;
  mode : Parallel_replay.mode;
  interleave : bool;
  backend : Parallel_replay.backend;
}

type replay = {
  drained : Sink.drained;
  controller : Controller.t option;
  par : Parallel_replay.result option;
  leaked_entries : int;
}

let attach_reaper ~reap runtime ctx =
  match reap with
  | Reap_fixed policy ->
      Reaper.on_quiescence ~policy runtime ctx;
      None
  | Reap_controlled config ->
      let controller =
        Controller.create ~config
          ~nshards:(Tl_monitor.Montable.shard_count (Thin.montable ctx))
          ()
      in
      Reaper.on_quiescence ~controller runtime ctx;
      Some controller

(* Build the traced scheme: the thin lock carries a reaper (fixed
   policy or controller); CJM needs none — its monitors evaporate on
   their own — and instead reports its table census after the run. *)
let traced_scheme ~count_width lock sink runtime =
  match lock with
  | Thin { fat_backend; reap } ->
      let config = { Thin.default_config with count_width; fat_backend } in
      let ctx = Thin.create_with ~config ~events:sink runtime in
      let controller = attach_reaper ~reap runtime ctx in
      (Scheme_intf.pack (module Thin) ctx, controller, fun () -> 0)
  | Cjm ->
      let ctx = Tl_cjm.Cjm.create_with ~events:sink runtime in
      ( Scheme_intf.pack (module Tl_cjm.Cjm) ctx,
        None,
        fun () -> Tl_cjm.Cjm.live_entries ctx )

let replay_traced ?(count_width = 1) ?(quiescence_every = 64) ?sampling ?par lock
    (trace : Tracegen.t) =
  let ops = trace.Tracegen.ops in
  (* Room for one acquire + one release event per op, plus inflations,
     deflations, scans and quiescence marks: no drops, so the scores
     see the whole run. *)
  let sink =
    Sink.create ~ring_capacity:((4 * Array.length ops) + 4096) ?sampling ()
  in
  let runtime = Runtime.create () in
  Runtime.set_event_sink runtime sink;
  let scheme, controller, live_entries =
    traced_scheme ~count_width lock sink runtime
  in
  let result =
    match par with
    | None ->
        let env = Runtime.main_env runtime in
        let heap = Tl_heap.Heap.create () in
        let pool = Tl_heap.Heap.alloc_many heap trace.Tracegen.pool_size in
        Array.iteri
          (fun i op ->
            if op > 0 then scheme.Scheme_intf.acquire env pool.(op - 1)
            else scheme.Scheme_intf.release env pool.(-op - 1);
            if (i + 1) mod quiescence_every = 0 then
              Runtime.quiescence_point ~env runtime)
          ops;
        None
    | Some { domains; mode; interleave; backend } ->
        let config =
          {
            Parallel_replay.default_config with
            Parallel_replay.domains;
            mode;
            tick_every = quiescence_every;
            backend;
          }
        in
        let tick = Parallel_replay.quiescence_tick ~interleave ~backend runtime in
        Some (Parallel_replay.run ~config ~tick ~scheme ~runtime trace)
  in
  (* Settle: with a reaper attached, extra announcements from the main
     thread give hysteresis policies (idle-for-N) the chance to drain
     monitors still fat at trace end. *)
  (match lock with
  | Thin _ ->
      let env = Runtime.main_env runtime in
      for _ = 1 to 16 do
        Runtime.quiescence_point ~env runtime
      done
  | Cjm -> ());
  {
    drained = Sink.drain sink;
    controller;
    par = result;
    leaked_entries = live_entries ();
  }

type score = {
  policy : string;
  acquires : int;
  fast_ratio : float;
  inflations : int;
  deflations : int;
  aborted : int;
  reinflations : int;
  contended : int;
  thrash : float;
  fat_residency : float;
  dropped : int;
}

(* Lab score: slow-path percentage plus thrash, lower better.  Both
   terms are "wasted work per acquire" shaped: acquires that missed
   the thin fast path, and deflations that had to be undone. *)
let lab_score s = (100.0 *. (1.0 -. s.fast_ratio)) +. s.thrash

let score_stream ~label (d : Sink.drained) =
  let acquires = ref 0 and fast = ref 0 in
  let inflations = ref 0 and deflations = ref 0 and aborted = ref 0 in
  let reinflations = ref 0 and contended = ref 0 in
  let deflated_once = Hashtbl.create 64 in
  let live = ref 0 in
  let area = ref 0.0 in
  let last_seq = ref None in
  Array.iter
    (fun (e : Event.t) ->
      (match !last_seq with
      | Some prev -> area := !area +. (float_of_int !live *. float_of_int (e.Event.seq - prev))
      | None -> ());
      last_seq := Some e.Event.seq;
      match e.Event.kind with
      | Event.Acquire_fast | Event.Acquire_nested ->
          incr acquires;
          incr fast
      | Event.Acquire_fat | Event.Acquire_fat_queued -> incr acquires
      | Event.Inflate_contention | Event.Inflate_wait | Event.Inflate_overflow
      | Event.Cjm_monitor_create ->
          incr inflations;
          incr live;
          if Hashtbl.mem deflated_once e.Event.arg then incr reinflations
      | Event.Deflate_quiescent | Event.Deflate_concurrent
      | Event.Cjm_monitor_evaporate ->
          incr deflations;
          decr live;
          Hashtbl.replace deflated_once e.Event.arg ()
      | Event.Deflate_aborted -> incr aborted
      | Event.Contended_begin -> incr contended
      | Event.Release_fast | Event.Release_nested | Event.Release_fat
      | Event.Contended_end | Event.Wait_op | Event.Notify_op
      | Event.Notify_all_op | Event.Reaper_scan | Event.Quiescence
      | Event.Tid_overflow | Event.Policy_switch ->
          ())
    d.Sink.events;
  let span =
    match (Array.length d.Sink.events, !last_seq) with
    | 0, _ | _, None -> 0
    | _, Some last -> last - d.Sink.events.(0).Event.seq
  in
  {
    policy = label;
    acquires = !acquires;
    fast_ratio = (if !acquires = 0 then 1.0 else float_of_int !fast /. float_of_int !acquires);
    inflations = !inflations;
    deflations = !deflations;
    aborted = !aborted;
    reinflations = !reinflations;
    contended = !contended;
    thrash =
      (if !acquires = 0 then 0.0
       else 1000.0 *. float_of_int !reinflations /. float_of_int !acquires);
    fat_residency = (if span = 0 then 0.0 else !area /. float_of_int span);
    dropped = List.fold_left (fun acc (_, n) -> acc + n) 0 d.Sink.dropped;
  }

(* Chosen for spread of inflation pressure: javalex is light (3 % of
   ops at depth >= 3), mocha moderate, javacup heavy (15 %). *)
let default_benchmarks = [ "javalex"; "javacup"; "mocha" ]

let header ~scheme ~par ~max_syncs ~seed =
  match (par, scheme) with
  | None, `Thin ->
      Printf.sprintf
        "Policy lab: macro traces replayed under each deflation policy\n\
         (1-bit nest count so depth-3 episodes overflow-inflate; quiescence\n\
         announced every 64 ops drives the reaper; %d ops per trace, seed %d).\n"
        max_syncs seed
  | None, `Cjm ->
      Printf.sprintf
        "Policy lab: macro traces replayed on the CJM transient monitor table\n\
         (no header word, no deflation policy — monitors evaporate the moment a\n\
         releaser finds them idle; infl/defl are monitor create/evaporate;\n\
         quiescence announced every 64 ops; %d ops per trace, seed %d).\n"
        max_syncs seed
  | Some p, _ -> (
      Printf.sprintf "Policy lab, parallel: macro traces replayed across %d %s (%s mode)\n"
        p.domains
        (match p.backend with
        | Parallel_replay.Os_domains -> "domains"
        | Parallel_replay.Fibers -> "fiber-carrier domains")
        (Parallel_replay.mode_name p.mode)
      ^
      match scheme with
      | `Cjm ->
          Printf.sprintf
            "on the CJM transient monitor table (no header word, no deflation policy;\n\
             infl/defl are monitor create/evaporate%s; %d ops per trace, seed %d).\n"
            (if p.interleave then "; interleave ticks on" else "")
            max_syncs seed
      | `Thin ->
          Printf.sprintf
            "under each deflation policy (1-bit nest count; quiescence announced\n\
             every 64 ops per domain drives the reaper%s; %d ops per trace, seed %d).\n"
            (if p.interleave then ", with interleave ticks" else "")
            max_syncs seed)

let footer ~scheme ~par =
  match (par, scheme) with
  | None, `Thin ->
      "(zero-contended-episodes tracks always-idle here: single-threaded replays never\n\
       queue, so every monitor has zero contended episodes.)\n"
  | None, `Cjm ->
      "(one row per trace: CJM's lifecycle has no policy dimension to rank — the\n\
       table exists for head-to-head comparison against the thin-scheme lab.)\n"
  | Some _, `Thin ->
      "(contended episodes give zero-contended-episodes something to protect: monitors\n\
       that queued threads stay fat under it, while always-idle deflates them and\n\
       pays the re-inflation.)\n"
  | Some _, `Cjm ->
      "(one row per trace: CJM's lifecycle has no policy dimension to rank — compare\n\
       the create/evaporate churn and residency against the thin-scheme lab.)\n"

let table ?(max_syncs = 20_000) ?(seed = 1998) ?(benchmarks = default_benchmarks)
    ?(scheme = `Thin) ?(fat_backend = Tl_monitor.Fatlock.Parker) ?controlled ?par () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header ~scheme ~par ~max_syncs ~seed);
  Buffer.add_string buf
    "lab score = slow-path % + re-inflations per 1000 acquires (lower is better).\n\n";
  (* Rows: one per shipped policy (plus the controller when asked) on
     the thin lock; CJM has no policy dimension, so one row. *)
  let runs =
    match scheme with
    | `Cjm -> [ ("cjm (evaporate)", Cjm) ]
    | `Thin ->
        List.map
          (fun p -> (p.Policy.name, Thin { fat_backend; reap = Reap_fixed p }))
          shipped_policies
        @ Option.fold ~none:[]
            ~some:(fun c -> [ ("controlled", Thin { fat_backend; reap = Reap_controlled c }) ])
            controlled
  in
  let cont = Option.is_some par in
  List.iter
    (fun bench ->
      let profile =
        match Profiles.find bench with
        | Some p -> p
        | None -> invalid_arg (Printf.sprintf "Policy_lab.table: unknown benchmark %S" bench)
      in
      let trace = Tracegen.generate ~seed ~max_syncs profile in
      let scores =
        List.map
          (fun (label, lock) -> score_stream ~label (replay_traced ?par lock trace).drained)
          runs
      in
      let rows =
        List.map
          (fun s ->
            [ s.policy; Printf.sprintf "%.1f" (100.0 *. s.fast_ratio);
              Printf.sprintf "%.1f" s.fat_residency ]
            @ (if cont then [ string_of_int s.contended ] else [])
            @ [
                string_of_int s.inflations;
                string_of_int s.deflations;
                string_of_int s.aborted;
                string_of_int s.reinflations;
                Printf.sprintf "%.2f" s.thrash;
                Printf.sprintf "%.2f" (lab_score s);
              ])
          scores
      in
      let columns =
        [ "policy"; "fast %"; "fat-res" ]
        @ (if cont then [ "cont" ] else [])
        @ [ "infl"; "defl"; "abort"; "re-infl"; "thrash/1k"; "score" ]
      in
      Buffer.add_string buf
        (T.render
           ~title:(Printf.sprintf "%s (%d acquires)" bench (Tracegen.acquire_count trace))
           ~header:columns
           ~align:(T.Left :: List.map (fun _ -> T.Right) (List.tl columns))
           rows);
      match scheme with
      | `Thin ->
          let ranked = List.sort (fun a b -> compare (lab_score a) (lab_score b)) scores in
          Buffer.add_string buf
            (Printf.sprintf "ranking: %s\n\n"
               (String.concat " < " (List.map (fun s -> s.policy) ranked)))
      | `Cjm -> Buffer.add_string buf "\n")
    benchmarks;
  Buffer.add_string buf (footer ~scheme ~par);
  Buffer.contents buf
