(** Fields of the Linux [/proc/self/status] file. *)

val kb : string -> int
(** [kb key]: the value of the [key:] line in kB ([VmRSS], [VmHWM], ...);
    0 when the file or the line is absent (not Linux, or a kernel that
    omits the field). *)
