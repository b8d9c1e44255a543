from .cli import main  # python -m mllrc runs the command-line interface
if __name__ == "__main__":  # importing the module runs nothing
    main()
