fn main() -> std::process::ExitCode {
    txmm_perfbench::main()
}
