(** Deterministic fault injection at named sites.

    Production code marks its failure-interesting points with
    [Fault.point "site"] (passes, memo fills, pool tasks, DSE
    evaluations); tests and the [--inject]/[POM_FAULTS] knobs arm a spec,
    and the Nth visit to an armed site fires the configured fault.  With
    nothing armed every point is a single atomic load, so the hooks stay
    in release builds.

    Spec syntax: comma-separated [site=kind@n] terms, [@n] defaulting to 1
    (the first visit).  Kinds:
    - [fail]: raise {!Injected} — an ordinary failure the guard layer
      degrades or aborts on;
    - [timeout]: raise {!Budget.Budget_exceeded} — indistinguishable from
      a genuine deadline, exercising the timeout fallbacks;
    - [kill]: raise {!Killed} — simulates the process dying at that point;
      guards re-raise it, so it unwinds everything (used by the
      checkpoint kill-and-resume test);
    - [stall]: block at the site until the ambient {!Budget} is exhausted
      or cancelled, then raise its {!Budget.Budget_exceeded} — a hang whose
      length the test controls, not the compiler's speed (with no budget
      installed it raises at once).

    Example: ["pass:hls-synthesize=fail@1,dse:evaluate=kill@5"]. *)

exception Injected of string

exception Killed of string

(** Arm a spec (replacing any previous one).  Raises [Invalid_argument] on
    a malformed spec. *)
val configure : string -> unit

(** Arm from the [POM_FAULTS] environment variable when set. *)
val configure_from_env : unit -> unit

(** Disarm everything and forget visit counts. *)
val reset : unit -> unit

(** Whether any site is armed. *)
val enabled : unit -> bool

(** Visit [site]; fires the armed fault when this is the configured visit. *)
val point : string -> unit

(** Like {!point} but never raises: returns [true] when the fault fires.
    For sites where unwinding is wrong (e.g. simulating a skipped cleanup). *)
val poll : string -> bool
