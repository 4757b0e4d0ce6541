if __name__ == "__main__":
    from asympatch.cli import main
    raise SystemExit(main())
