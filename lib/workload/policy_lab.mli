(** The policy lab: score deflation policies against macro traces
    using the lock-event stream.

    Counter snapshots say how many deflations happened; the ordered
    event stream additionally says how long monitors {e stayed} fat
    and whether a deflation was wasted because the same object
    re-inflated right after.  The lab replays one deterministic trace
    per policy with tracing enabled and reduces the drained stream to
    those metrics:

    - {b fast ratio} — acquires that took the thin fast or nested path
      over all acquires;
    - {b fat residency} — the integral of live fat monitors over the
      event-sequence span (mean monitors fat at any instant);
    - {b thrash} — re-inflations (an [Inflate_*] of an object already
      deflated once) per 1000 acquires.

    Replays use a 1-bit nest count so depth-3 episodes
    overflow-inflate (giving each benchmark its profile's inflation
    pressure even single-threaded) and announce a quiescence point
    every [quiescence_every] ops to drive the quiescence-hooked
    reaper. *)

val shipped_policies : Tl_lifecycle.Policy.t list
(** [never], [always-idle], [idle-for-4], [zero-contended-episodes]. *)

val policy_of_string : string -> Tl_lifecycle.Policy.t option
(** Look a shipped policy up by its name. *)

(** {1 Reap modes}

    How the reaper attached to a replay is driven: a fixed shipped
    policy, or the self-tuning feedback controller
    ([Tl_lifecycle.Controller]) re-selecting each monitor-table
    shard's policy at runtime from the statistics the census walk
    feeds it. *)

type reap =
  | Reap_fixed of Tl_lifecycle.Policy.t
  | Reap_controlled of Tl_lifecycle.Controller.config

val reap_of_string :
  ?controller:Tl_lifecycle.Controller.config -> string -> reap option
(** Shipped-policy names resolve to [Reap_fixed]; ["controlled"] to
    [Reap_controlled controller] (default {!Tl_lifecycle.Controller.default_config}). *)

(** {1 Traced replays} *)

type lock =
  | Thin of { fat_backend : Tl_monitor.Fatlock.backend; reap : reap }
      (** The paper's thin lock with a 1-bit-default nest count,
          inflating to [fat_backend] monitors and deflating under
          [reap]. *)
  | Cjm
      (** The headerless CJM transient monitor table: no count width
          (the inline depth is a full int) and no reaper (monitors
          evaporate on their own).  Check its streams with
          [Oracle.check ~protocol:Cjm]. *)

type par = {
  domains : int;
  mode : Parallel_replay.mode;
  interleave : bool;
      (** add a 50 µs voluntary deschedule to each quiescence tick —
          see {!Parallel_replay.quiescence_tick} *)
  backend : Parallel_replay.backend;  (** what carries a worker *)
}
(** Replay through {!Parallel_replay} (real domains, work stealing)
    instead of the single-threaded loop.  The single-threaded lab can
    never produce a contended episode, so [zero_contended_episodes] is
    indistinguishable from [always_idle] there; in shuffle mode,
    overlapping episodes of hot objects queue for real, and the
    policies separate. *)

type replay = {
  drained : Tl_events.Sink.drained;  (** the whole stream, nothing dropped *)
  controller : Tl_lifecycle.Controller.t option;
      (** in [Reap_controlled] mode, the controller (created with the
          ctx's monitor-table shard count); its [Policy_switch]
          decisions are in [drained] *)
  par : Parallel_replay.result option;  (** [Some] iff [par] was given *)
  leaked_entries : int;
      (** CJM table entries still live after the replay (0 when the
          table drained; always 0 for the thin lock) *)
}

val replay_traced :
  ?count_width:int ->
  ?quiescence_every:int ->
  ?sampling:Tl_events.Sink.sampling ->
  ?par:par ->
  lock ->
  Tracegen.t ->
  replay
(** Replay one trace on a fresh runtime/heap under [lock], tracing
    every lock event into a sink sized so nothing drops.
    [count_width] (default 1, thin only) and [quiescence_every]
    (default 64 ops, per domain under [par]) as in the module
    comment; [sampling] (default every event) spot-checks
    production-style sampled streams.  Under a thin lock, 16 settle
    announcements follow the trace so hysteresis policies can drain
    monitors left fat at trace end; CJM streams carry no such extra
    [Quiescence] events.  Under [par], reaper scans are single-flight,
    so controller decision epochs land between census walks no matter
    how many domains announce. *)

(** {1 Scoring} *)

type score = {
  policy : string;  (** the row label *)
  acquires : int;
  fast_ratio : float;
  inflations : int;
  deflations : int;
  aborted : int;  (** aborted deflation handshakes *)
  reinflations : int;
  contended : int;  (** contended thin-lock episodes ([Contended_begin]) *)
  thrash : float;  (** re-inflations per 1000 acquires *)
  fat_residency : float;
  dropped : int;  (** ring-overflow losses — 0 in lab replays *)
}

val score_stream : label:string -> Tl_events.Sink.drained -> score
(** Reduce a drained stream to the lab metrics, labelled [label].
    CJM monitor creations count as inflations, evaporations as
    deflations. *)

val lab_score : score -> float
(** Composite ranking key: slow-path percentage + thrash; lower is
    better. *)

val default_benchmarks : string list

val table :
  ?max_syncs:int ->
  ?seed:int ->
  ?benchmarks:string list ->
  ?scheme:[ `Thin | `Cjm ] ->
  ?fat_backend:Tl_monitor.Fatlock.backend ->
  ?controlled:Tl_lifecycle.Controller.config ->
  ?par:par ->
  unit ->
  string
(** Render the comparison: one table per benchmark trace (default
    {!default_benchmarks}, 20k ops each) with every shipped policy's
    metrics, followed by a lab-score ranking line.  [scheme] (default
    [`Thin]) selects the lock under the lab: [`Cjm] replays each trace
    on the transient monitor table instead — one row per trace, no
    policy dimension — for comparison against the thin tables.
    [controlled] appends a feedback-controller row to each thin table
    so the self-tuning mode ranks against the fixed policies.  [par]
    replays across domains and adds a contended-episode column; shuffle
    mode is where that column goes non-zero and the ranking can
    reorder. *)
