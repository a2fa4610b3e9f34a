(* Shared plumbing: the run's outcome record, timing helpers and the
   statistics every workload reports with. *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * string * float) list;  (** newest first *)
}

let outcome () = { attempted = 0; failed = 0; metrics = [] }

(* [count o ~attempted ~failed what] adds to the run's operation
   counts; [what] says which check the failures broke. *)
let count o ~attempted ~failed what =
  o.attempted <- o.attempted + attempted;
  if failed > 0 then begin
    o.failed <- o.failed + failed;
    Printf.eprintf "check failed (%d operation(s)): %s\n%!" failed what
  end

(* [check o ~units ok what]: [units] operations, all failed unless
   [ok]. *)
let check o ?(units = 1) ok what =
  count o ~attempted:units ~failed:(if ok then 0 else units) what

(* The shipped default scheme, as the replay engines and the VM take
   it. *)
let thin_packed rt = Tl_core.Scheme_intf.pack (module Tl_core.Thin) (Tl_core.Thin.create rt)

let metric o name unit value = o.metrics <- (name, unit, value) :: o.metrics

let seconds () = float_of_int (Spans.now ()) /. 1e9

(* [rounds ~seconds f] runs [f 1], [f 2], ... until [seconds] have
   passed, and at least once. *)
let rounds ~seconds:s f =
  let stop = seconds () +. s in
  let rec go k =
    f k;
    if seconds () < stop then go (k + 1)
  in
  go 1

let median xs = if xs = [||] then 0.0 else Tl_util.Stats.median xs
let pct xs p = if xs = [||] then 0.0 else Tl_util.Stats.percentile xs p

(* Host noise.  This benchmark shares its machine, and two things
   slow its timings without the program changing.  On a virtual
   machine, while the hypervisor runs other guests on our virtual CPUs
   ("steal" in /proc/stat) every timing slows, and two-domain ones
   collapse (a preempted lock holder stalls the other domain).  And for
   stretches of a few seconds to a few minutes, with steal still at 0,
   code that keeps a core busy (an interpreter, a replay loop, a hash
   table) runs up to 1.7-2x slower on that core while a chain of
   dependent multiplies keeps its speed: another tenant shares the
   physical core.

   Every timed sample records the share of CPU time stolen over its
   interval.  Where /proc/stat cannot be read every share is 0.

   Work that runs on the calling domain (a sequential replay, a JVM
   pass, a set-up) is also measured against the core it ran on: a fixed
   probe — a small interpreter loop and hash-table lookups and updates,
   benchmark code that calls no library function and does the same
   work every time — runs just before and just after the sample and slows in those
   stretches as the workloads do (on a 2-vCPU virtual machine its time
   correlated about 0.7 with a replay round's or a JVM pass's, and not
   at all when it ran on the other core).  Such a series is "corrected":
   its metric is the median over the quiet samples — those whose probes
   ran within [quiet_margin] of the run's quietest (the third fastest,
   so one freak reading does not set the bar) — of each value scaled to
   the speed at which the probe pair takes [probe_ref_ns].  A run that
   saw the host quiet at all is thus measured on its quiet stretches,
   and one that never did is scaled back by what the probe saw.  The
   correction looks at the probe only, never at a sample's own value, so
   a change that slows the program still moves the metric by as much.
   Its samples are first cut to those stolen from no more than the
   median.

   Work on domains the probe does not run on (the scaling passes'
   workers, the storm's carriers) did not follow the probe on either
   core, but did follow steal: a 1-domain scaling pass took about 6x
   the stolen share longer.  A "plain" series is therefore read at zero
   steal: its metric is the median of each value less the Theil-Sen
   slope of value over steal share (the median slope over all pairs of
   samples) times its own steal share.  Where the host stole nothing
   the slope is 0 and this is the plain median. *)
let cpu_ticks () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some line ->
            Scanf.sscanf line "cpu %d %d %d %d %d %d %d %d"
              (fun user nice sys idle iowait irq softirq steal ->
                (steal, user + nice + sys + idle + iowait + irq + softirq + steal))
        | None -> (0, 0))
  with _ -> (0, 0)

(* How far above the run's quietest probes a corrected sample's may be. *)
let quiet_margin = 0.10

(* The probe pair's time on a quiet host: about what it takes on a
   2-vCPU Xeon (Sapphire Rapids) virtual machine, where a corrected
   figure therefore reads about as the quiet timing. *)
let probe_ref_ns = 4.3e6

(* The probe's interpreter: 512 random instructions over a small
   stack, jumps included, so it dispatches as the JVM does. *)
type insn =
  | Push of int
  | Add
  | Sub
  | Mul
  | Dup
  | Swap
  | Pop
  | Jz of int
  | Jmp of int
  | Load of int
  | Store of int
  | Xor

let probe_code =
  let st = Random.State.make [| 0x9e37 |] in
  Array.init 512 (fun i ->
      let near k = (i + 1 + Random.State.int st k) land 511 in
      match Random.State.int st 12 with
      | 0 -> Push (Random.State.int st 100)
      | 1 -> Add
      | 2 -> Sub
      | 3 -> Mul
      | 4 -> Dup
      | 5 -> Swap
      | 6 -> Pop
      | 7 -> Jz (near 8)
      | 8 -> Jmp (near 4)
      | 9 -> Load (Random.State.int st 64)
      | 10 -> Store (Random.State.int st 64)
      | _ -> Xor)

let interpret steps =
  let stack = Array.make 1024 0 and sp = ref 8 and mem = Array.make 64 1 and pc = ref 0 in
  for _ = 1 to steps do
    let i = !pc in
    pc := (i + 1) land 511;
    (match probe_code.(i) with
    | Push n ->
        stack.(!sp) <- n;
        incr sp
    | Add ->
        decr sp;
        stack.(!sp - 1) <- stack.(!sp - 1) + stack.(!sp)
    | Sub ->
        decr sp;
        stack.(!sp - 1) <- stack.(!sp - 1) - stack.(!sp)
    | Mul ->
        decr sp;
        stack.(!sp - 1) <- stack.(!sp - 1) * stack.(!sp)
    | Dup ->
        stack.(!sp) <- stack.(!sp - 1);
        incr sp
    | Swap ->
        let t = stack.(!sp - 1) in
        stack.(!sp - 1) <- stack.(!sp - 2);
        stack.(!sp - 2) <- t
    | Pop -> decr sp
    | Jz t ->
        decr sp;
        if stack.(!sp) land 3 = 0 then pc := t
    | Jmp t -> pc := t
    | Load k ->
        stack.(!sp) <- mem.(k);
        incr sp
    | Store k ->
        decr sp;
        mem.(k) <- stack.(!sp)
    | Xor ->
        decr sp;
        stack.(!sp - 1) <- stack.(!sp - 1) lxor stack.(!sp));
    if !sp < 4 || !sp > 1000 then sp := 8
  done;
  stack.(8)

(* The probe's table: 4096 int keys, filled once; the probe looks up
   8192 keys, so half its lookups miss. *)
let probe_table =
  lazy
    (let h = Hashtbl.create 4096 in
     for k = 0 to 4095 do
       Hashtbl.replace h k k
     done;
     h)

(* Nanoseconds one probe takes.  Only the main domain probes. *)
let probe () =
  let h = Lazy.force probe_table in
  let t0 = Spans.now () in
  let acc = ref (interpret 200_000) in
  for i = 1 to 25_000 do
    let k = (i * 2654435761) land 8191 in
    match Hashtbl.find_opt h k with
    | Some v ->
        acc := !acc + v;
        Hashtbl.replace h k (v lxor (i land 4095))
    | None -> incr acc
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Spans.now () - t0)

type host = { steal : float;  (** share of CPU time stolen *) probe_ns : float  (** both probes *) }

(* How a series' metric is taken: plain, or corrected as a time or as a
   rate (which scales the other way). *)
type kind = Plain | Time | Rate

type series = { kind : kind; mutable samples : (float * host) list  (** value, host noise *) }

let series ?(kind = Plain) () = { kind; samples = [] }

(* [host_over f] is [f ()] with the host noise while it ran. *)
let host_over f =
  let p0 = probe () in
  let s0, t0 = cpu_ticks () in
  let r = f () in
  let s1, t1 = cpu_ticks () in
  let p1 = probe () in
  ( r,
    {
      steal = (if t1 > t0 then float_of_int (s1 - s0) /. float_of_int (t1 - t0) else 0.0);
      probe_ns = p0 +. p1;
    } )

let add s ~host v = s.samples <- (v, host) :: s.samples
let values s = Array.of_list (List.map fst s.samples)
let steals s = Array.of_list (List.map (fun (_, h) -> h.steal) s.samples)
let probes s = Array.of_list (List.map (fun (_, h) -> h.probe_ns) s.samples)

(* The Theil-Sen slope of value over steal share; 0 when every sample
   was stolen from alike. *)
let steal_slope samples =
  let a = Array.of_list samples in
  let slopes = ref [] in
  Array.iteri
    (fun i (v, h) ->
      for j = i + 1 to Array.length a - 1 do
        let w, g = a.(j) in
        if g.steal <> h.steal then slopes := ((w -. v) /. (g.steal -. h.steal)) :: !slopes
      done)
    a;
  median (Array.of_list !slopes)

(* The values a metric is the median of: a plain series' read at zero
   steal; a corrected series' quiet ones among those stolen from no
   more than the median, scaled to the reference probe speed. *)
let kept s =
  match s.kind with
  | Plain ->
      let slope = steal_slope s.samples in
      Array.of_list (List.map (fun (v, h) -> v -. (slope *. h.steal)) s.samples)
  | Time | Rate ->
      let stolen = median (steals s) in
      let calm = List.filter (fun (_, h) -> h.steal <= stolen) s.samples in
      let probes = Array.of_list (List.sort compare (List.map (fun (_, h) -> h.probe_ns) calm)) in
      let bar = probes.(min 2 (Array.length probes - 1)) *. (1.0 +. quiet_margin) in
      let scale (v, h) =
        if s.kind = Time then v *. probe_ref_ns /. h.probe_ns else v *. h.probe_ns /. probe_ref_ns
      in
      let quiet (v, h) = if h.probe_ns <= bar then Some (scale (v, h)) else None in
      Array.of_list (List.filter_map quiet calm)

let settled s = median (kept s)

(* A sample set's line before the result line: its name, count and
   quantiles, then [extra]. *)
let print_samples name ~n pct extra =
  let q p = Printf.sprintf " p%g=%.6g" p (pct p) in
  Printf.printf "samples: %s n=%d%s%s\n%!" name n
    (String.concat "" (List.map q [ 10.; 25.; 50.; 75.; 90.; 99. ]))
    extra

(* The sample set behind a metric, as measured, with how many samples
   the metric kept, the median steal share, the probe pair's median
   time and the metric itself. *)
let describe name s =
  let xs = values s in
  print_samples name ~n:(Array.length xs) (pct xs)
    (Printf.sprintf " kept=%d steal_p50=%.3f probe_p50_us=%.0f settled=%.6g"
       (Array.length (kept s)) (median (steals s))
       (median (probes s) /. 1e3)
       (settled s))

(* Log-bucketed histogram of positive values: bucket [i >= 1] holds
   values in [lo * r^(i-1), lo * r^i) with r = 1.005, so a percentile
   read back is within 0.25% of the sample's value, in constant
   memory however many samples a run takes. *)
module Hist = struct
  let ratio = 1.005
  let buckets = 6000

  type t = { lo : float; counts : int array; mutable n : int }

  let create ~lo = { lo; counts = Array.make buckets 0; n = 0 }

  let add h v =
    let i =
      if v <= h.lo then 0
      else min (buckets - 1) (1 + int_of_float (Float.log (v /. h.lo) /. Float.log ratio))
    in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1

  let count h = h.n

  (* The geometric middle of the bucket holding the [p]th percentile. *)
  let pct h p =
    if h.n = 0 then 0.0
    else
      let rank = Float.max 1.0 (Float.ceil (p /. 100.0 *. float_of_int h.n)) in
      let rec find i seen =
        let seen = seen + h.counts.(i) in
        if float_of_int seen >= rank || i = buckets - 1 then i else find (i + 1) seen
      in
      let i = find 0 0 in
      if i = 0 then h.lo else h.lo *. (ratio ** (float_of_int i -. 0.5))

  let describe name h = print_samples name ~n:h.n (pct h) ""
end

(* Set-up is repeated at least [setup_reps] times and for at least
   [setup_min_s] seconds; the last result is kept and the reported
   set-up time is the corrected median of the repetitions, so one slow
   repetition (a major GC slice, a descheduled core, a busy neighbour)
   does not move it. *)
let setup_reps = 5
let setup_min_s = 2.0

let timed_setup f =
  let times = series ~kind:Time () and last = ref None in
  let stop = seconds () +. setup_min_s in
  while List.length times.samples < setup_reps || seconds () < stop do
    Gc.full_major ();
    let t, host =
      host_over (fun () ->
          let t0 = seconds () in
          last := Some (f ());
          seconds () -. t0)
    in
    add times ~host t
  done;
  (Option.get !last, settled times)

(* Cost of reading the clock once, subtracted from sampled spans. *)
let clock_ns =
  lazy
    (let n = 20_001 in
     let samples =
       Array.init n (fun _ ->
           let a = Spans.now () in
           let b = Spans.now () in
           float_of_int (b - a))
     in
     median samples)

(* Minor collections and minor words over a stretch of work, as the
   calling domain's [Gc.quick_stat] sees them once every domain the
   work started has joined. *)
type gc = { mutable collections : float list; mutable words_per_op : float list }

let gc () = { collections = []; words_per_op = [] }

let gc_over g ~ops f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  let collections = g1.Gc.minor_collections - g0.Gc.minor_collections in
  g.collections <- float_of_int collections :: g.collections;
  let words = g1.Gc.minor_words -. g0.Gc.minor_words in
  g.words_per_op <- (words /. float_of_int ops) :: g.words_per_op;
  r

(* Tracing overhead: how much the traced phase's settled rate and time
   trail the untraced phase's, each given as (untraced, traced). *)
let report_overhead o ~rate:(base_rate, rate) ~time:(base_time, time) =
  let pct ratio = 100.0 *. (ratio -. 1.0) in
  metric o "trace.overhead_pct" "%" (pct (settled base_rate /. settled rate));
  metric o "trace.latency_overhead_pct" "%" (pct (settled time /. settled base_time))

let report_gc o g =
  metric o "gc.minor_collections" "count" (median (Array.of_list g.collections));
  metric o "gc.minor_words_per_op" "words" (median (Array.of_list g.words_per_op))
