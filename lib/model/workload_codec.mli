(** Plain-text workload files.

    A line-oriented format so workloads can be written by hand, checked
    into repositories, and fed to the CLI ([lla solve -w file:PATH]).
    Blank lines and [#] comments are ignored; indentation is free-form.

    {v
    # resources: id, then key=value attributes
    resource 0 name=feed-cpu kind=cpu availability=0.95 lag=0
    resource 1 kind=link availability=0.9

    # tasks own the subtask/edge lines that follow them
    task 1 name=pipeline critical_time=50 utility=linear:2 \
           trigger=periodic:100 variant=path-weighted percentile=100
    subtask 10 task=1 name=stage-a resource=0 exec=8 share=reciprocal
    subtask 11 task=1 resource=1 exec=4 share=power:1.5
    edge 10 11
    v}

    Utilities: [linear:K], [negative], [log:K[:WEIGHT]],
    [softdl:SHARPNESS[:SCALE]], [quadratic[:WEIGHT]], [constant:V] (all
    anchored to the task's critical time where applicable).
    Triggers: [periodic:PERIOD[:PHASE]], [poisson:RATE_PER_SECOND],
    [bursty:ON:OFF:IN_BURST], and
    [phased:SWITCH_AT;TRIGGER;TRIGGER] (with [;] separating the nested
    specs). Share models: [reciprocal], [power:EXPONENT].
    Variants: [sum], [path-weighted]. *)

val parse : string -> (Workload.t, string) result
(** Parse the format above; errors carry the offending line number. A
    task owns the edges leaving the subtasks it declares; an edge into
    another task, or from a subtask no task declares, is an error.
    Near-linear in the file size. *)

val to_string : Workload.t -> string
(** Render a workload back to the format; [parse (to_string w)] yields a
    workload equal to [w] up to utility/trigger constructors (tested by
    round-trip properties). Custom utilities raise
    [Invalid_argument] — only the stock constructors are serializable. *)

val load : path:string -> (Workload.t, string) result

val save : path:string -> Workload.t -> unit
